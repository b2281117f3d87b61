# proof corpus entry sat-p03-1: sweep-102
# live_in: edi
# live_out: eax
# target
  movl edi, -8(rsp)
  movl -8(rsp), eax
  negl eax
  movl eax, -16(rsp)
  movl -8(rsp), eax
  movl -16(rsp), ecx
  andl ecx, eax
  movl eax, -24(rsp)
  movl -24(rsp), eax
# rewrite
  movl edi, -8(rsp)
  movl -8(rsp), eax
  negl eax
  movl eax, -16(rsp)
  andl -8(rsp), eax
  movl 31, ecx
  andl ecx, eax
  movl eax, -24(rsp)
  movl -24(rsp), eax
