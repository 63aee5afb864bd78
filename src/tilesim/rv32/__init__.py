"""The RV32I instruction decoder and the multicycle guest core."""
