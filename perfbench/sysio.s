# sysio: SYSIO_ROUNDS times, open in.dat, read it in SYSIO_CHUNK-byte chunks
# into ARRAY_BASE, fold every byte into h = h*31 + byte, append each chunk to
# out.dat, then fstat and close in.dat. Prints "sysio=<h> size=<st_size>".
# Any failed call ends the program with exit status 1.

main:
    addi sp, sp, -16
    sw   ra, 12(sp)
    li   s0, 0                  # h
    li   a0, 56                 # openat(AT_FDCWD, "out.dat", O_WRONLY|O_CREAT|O_TRUNC, 0644)
    li   a1, -100
    la   a2, sysio_out_name
    li   a3, 0x241
    li   a4, 0x1a4
    jal  ra, __syscall
    blt  a0, zero, sysio_fail
    mv   s4, a0                 # out fd
    li   s3, SYSIO_ROUNDS
sysio_round:
    li   a0, 56                 # openat(AT_FDCWD, "in.dat", O_RDONLY, 0)
    li   a1, -100
    la   a2, sysio_in_name
    li   a3, 0
    li   a4, 0
    jal  ra, __syscall
    blt  a0, zero, sysio_fail
    mv   s5, a0                 # in fd
sysio_chunk:
    li   a0, 63                 # read(in, buf, SYSIO_CHUNK)
    mv   a1, s5
    li   a2, ARRAY_BASE
    li   a3, SYSIO_CHUNK
    jal  ra, __syscall
    blt  a0, zero, sysio_fail
    beqz a0, sysio_eof
    mv   s6, a0                 # bytes read
    li   t0, ARRAY_BASE
    add  t1, t0, s6
sysio_fold:
    lbu  t2, 0(t0)
    slli t3, s0, 5
    sub  t3, t3, s0
    add  s0, t3, t2
    addi t0, t0, 1
    bltu t0, t1, sysio_fold
    li   a0, 64                 # write(out, buf, bytes read)
    mv   a1, s4
    li   a2, ARRAY_BASE
    mv   a3, s6
    jal  ra, __syscall
    bne  a0, s6, sysio_fail
    j    sysio_chunk
sysio_eof:
    li   a0, 80                 # fstat(in, &stat)
    mv   a1, s5
    la   a2, sysio_stat
    jal  ra, __syscall
    bnez a0, sysio_fail
    li   a0, 57                 # close(in)
    mv   a1, s5
    jal  ra, __syscall
    bnez a0, sysio_fail
    addi s3, s3, -1
    bnez s3, sysio_round

    li   a0, 57                 # close(out)
    mv   a1, s4
    jal  ra, __syscall
    bnez a0, sysio_fail
    la   a0, sysio_msg
    jal  ra, print_str
    mv   a0, s0
    jal  ra, print_u32
    la   a0, sysio_size_msg
    jal  ra, print_str
    la   t0, sysio_stat
    lw   a0, 4(t0)              # st_size
    jal  ra, print_u32
    la   a0, sysio_nl
    jal  ra, print_str
    li   a0, 0
    j    sysio_ret
sysio_fail:
    li   a0, 1
sysio_ret:
    lw   ra, 12(sp)
    addi sp, sp, 16
    ret

sysio_in_name:
    .asciz "in.dat"
sysio_out_name:
    .asciz "out.dat"
sysio_msg:
    .asciz "sysio="
sysio_size_msg:
    .asciz " size="
sysio_nl:
    .asciz "\n"
    .balign 16
sysio_stat:
    .space 16
