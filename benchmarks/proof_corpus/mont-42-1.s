# proof corpus entry mont-42-1: mont-42
# live_in: rsi ecx edx rdi r8
# live_out: rdi r8
# target
  movq rsi, -8(rsp)
  movl ecx, -16(rsp)
  movl edx, -24(rsp)
  movq rdi, -32(rsp)
  movq r8, -40(rsp)
  movl -16(rsp), eax
  movq rax, -48(rsp)
  movl 32, eax
  movl eax, -56(rsp)
  movq -48(rsp), rax
  movl -56(rsp), ecx
  shlq cl, rax
  movq rax, -64(rsp)
  movl -24(rsp), eax
  movq rax, -72(rsp)
  movq -64(rsp), rax
  movq -72(rsp), rcx
  orq rcx, rax
  movq rax, -80(rsp)
  movq -8(rsp), rax
  movq -80(rsp), rcx
  mulq rcx
  movq rax, -88(rsp)
  movq rdx, -96(rsp)
  movq -8(rsp), rax
  movq -80(rsp), rcx
  imulq rcx, rax
  movq rax, -104(rsp)
  movq -104(rsp), rax
  movq -32(rsp), rcx
  addq rcx, rax
  movq rax, -112(rsp)
  movq -112(rsp), rax
  movq -104(rsp), rcx
  cmpq rcx, rax
  setb dl
  movzbq dl, rdx
  movq rdx, -120(rsp)
  movq -96(rsp), rax
  movq -120(rsp), rcx
  addq rcx, rax
  movq rax, -128(rsp)
  movq -112(rsp), rax
  movq -40(rsp), rcx
  addq rcx, rax
  movq rax, -136(rsp)
  movq -136(rsp), rax
  movq -112(rsp), rcx
  cmpq rcx, rax
  setb dl
  movzbq dl, rdx
  movq rdx, -144(rsp)
  movq -128(rsp), rax
  movq -144(rsp), rcx
  addq rcx, rax
  movq rax, -152(rsp)
  movq -136(rsp), rdi
  movq -152(rsp), r8
# rewrite
  movq r8, -40(rsp)
  movl ecx, -16(rsp)
  movl edx, -24(rsp)
  movq rdi, -32(rsp)
  movq rsi, -8(rsp)
  movl -16(rsp), eax
  movq rax, -48(rsp)
  movl 32, eax
  movl eax, -56(rsp)
  movq -48(rsp), rax
  movl -56(rsp), ecx
  shlq cl, rax
  movq rax, -64(rsp)
  movl -24(rsp), eax
  movq rax, -72(rsp)
  movq -64(rsp), rax
  movq -72(rsp), rcx
  orq rcx, rax
  movq rax, -80(rsp)
  movq -8(rsp), rax
  movq -80(rsp), rcx
  mulq rcx
  movq rdx, -96(rsp)
  cmovnaeq -8(rsp), rax
  imulq rcx, rax
  movq rax, -104(rsp)
  cmovoq -32(rsp), rcx
  addq rcx, rax
  movq rax, -112(rsp)
  cmpq rcx, rax
  setb dl
  movzbq dl, rdx
  movq rdx, -120(rsp)
  movq -96(rsp), rax
  movq -120(rsp), rcx
  addq rcx, rax
  movq rax, -128(rsp)
  movq -112(rsp), rax
  cmovnoq -40(rsp), rcx
  addq rcx, rax
  movq rax, -136(rsp)
  setc dl
  setb dl
  movq rdx, -144(rsp)
  movq -128(rsp), rax
  movq -144(rsp), rcx
  addq rcx, rax
  movq rax, -152(rsp)
  movq -136(rsp), rdi
  movq -152(rsp), r8
