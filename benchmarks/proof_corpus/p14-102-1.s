# proof corpus entry p14-102-1: sweep-102
# live_in: edi esi
# live_out: eax
# target
  movl edi, -8(rsp)
  movl esi, -16(rsp)
  movl -8(rsp), eax
  movl -16(rsp), ecx
  andl ecx, eax
  movl eax, -24(rsp)
  movl -8(rsp), eax
  movl -16(rsp), ecx
  xorl ecx, eax
  movl eax, -32(rsp)
  movl 1, eax
  movl eax, -40(rsp)
  movl -32(rsp), eax
  movl -40(rsp), ecx
  shrl cl, eax
  movl eax, -48(rsp)
  movl -24(rsp), eax
  movl -48(rsp), ecx
  addl ecx, eax
  movl eax, -56(rsp)
  movl -56(rsp), eax
# rewrite
  movl edi, -8(rsp)
  movl esi, -16(rsp)
  movl -8(rsp), eax
  movl -16(rsp), ecx
  andl ecx, eax
  movl eax, -24(rsp)
  movl -8(rsp), eax
  movl -16(rsp), ecx
  xorl ecx, eax
  movl eax, -32(rsp)
  movl 1, eax
  movl eax, -40(rsp)
  movl -32(rsp), eax
  cmoval -40(rsp), ecx
  shrl cl, eax
  movl eax, -48(rsp)
  movl -24(rsp), eax
  movl -48(rsp), ecx
  addl ecx, eax
  movl eax, -56(rsp)
  movl -56(rsp), eax
