# Sum 1..8 into the shared word at 0x40000000, printing each partial
# sum on the core's console.
	li   s0, 0x40000000
	li   s1, 8
	li   s2, 0
loop:
	add  s2, s2, s1
	sw   s2, 0(s0)
	li   v0, 1
	add  a0, s2, r0
	ecall
	addi s1, s1, -1
	bne  s1, r0, loop
	halt
