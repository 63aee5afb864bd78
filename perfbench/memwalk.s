# memwalk: one access per 16-byte line over two regions, MEMWALK_ROUNDS times.
#   region A, MEMWALK_L2_BYTES at ARRAY_BASE: larger than the private cache,
#     smaller than the aggregate L2, so its load pass is L2-serviced;
#   region B, MEMWALK_DRAM_BYTES right after A: larger than the aggregate L2,
#     so both of its passes are DRAM-serviced, with dirty L2 evictions.
# Each region gets a store pass (v += step per line, v and step seeded from
# GUEST_SEED) and then a load pass that folds each word into h = h*31 + word.
# Prints "memwalk=<h>".

main:
    addi sp, sp, -16
    sw   ra, 12(sp)
    li   s0, 0                  # h
    li   s1, GUEST_SEED         # v
    ori  s2, s1, 1              # step (odd)
    li   s3, MEMWALK_ROUNDS
memwalk_round:
    li   a0, ARRAY_BASE
    li   a1, MEMWALK_L2_BYTES
    jal  ra, memwalk_region
    li   a0, ARRAY_BASE + MEMWALK_L2_BYTES
    li   a1, MEMWALK_DRAM_BYTES
    jal  ra, memwalk_region
    addi s3, s3, -1
    bnez s3, memwalk_round

    la   a0, memwalk_msg
    jal  ra, print_str
    mv   a0, s0
    jal  ra, print_u32
    la   a0, memwalk_nl
    jal  ra, print_str
    lw   ra, 12(sp)
    addi sp, sp, 16
    li   a0, 0
    ret

# memwalk_region(a0 = base, a1 = bytes): store pass, then load pass
memwalk_region:
    add  t0, a0, a1             # end
    mv   t1, a0
memwalk_store:
    sw   s1, 0(t1)
    add  s1, s1, s2
    addi t1, t1, 16
    bltu t1, t0, memwalk_store
    mv   t1, a0
memwalk_load:
    lw   t2, 0(t1)
    slli t3, s0, 5
    sub  t3, t3, s0
    add  s0, t3, t2
    addi t1, t1, 16
    bltu t1, t0, memwalk_load
    ret

memwalk_msg:
    .asciz "memwalk="
memwalk_nl:
    .asciz "\n"
