/* The exact MVM kernel of Puma_xbar.Bitslice.

   The weight image (an OCaml string) holds dim * dim native-endian int16
   raw weights, row-major, with |w| <= 32767 (Bitslice.of_image clamps
   -32768). An empty image stands for an all-zero matrix. The kernel writes
   out[i] = sum_j w[i][j] * x[j] as an OCaml int.

   Inputs inside the int16 range (every compiled program) take the
   split-byte path: x = hi * 256 + lo with hi = x >> 8 in [-128, 127] and
   lo = x & 0xff in [0, 255]. Per block of BLOCK columns the two dot
   products w.hi and w.lo are taken in int32, which cannot overflow:
   BLOCK * 32767 * 255 and BLOCK * 32767 * 128 are both below 2^31. Each
   block is then combined as hi * 256 + lo in int64, where the whole row
   fits (dim * 2^30 stays far below 2^63). The int16 x int16 -> int32
   loops are the shape compilers vectorize into multiply-add
   instructions.

   Any other input takes a scalar uint64 loop. Unsigned arithmetic wraps
   mod 2^64, and Val_long keeps the low 63 bits, so the result equals
   OCaml's own wrapping int arithmetic for every input.

   The stub neither allocates nor raises, and it keeps its scratch on the
   C stack: the image is never written, so it can be shared freely. */

#include <stdint.h>
#include <caml/mlvalues.h>

#define BLOCK 128

static void mvm_split(const int16_t *w, const value *x, value *out, intnat d)
{
  int16_t hi[d], lo[d];
  for (intnat j = 0; j < d; j++) {
    intnat v = Long_val(x[j]);
    hi[j] = (int16_t)(v >> 8);
    lo[j] = (int16_t)(v & 0xff);
  }
  for (intnat i = 0; i < d; i++) {
    const int16_t *row = w + i * d;
    int64_t acc = 0;
    for (intnat j0 = 0; j0 < d; j0 += BLOCK) {
      intnat n = d - j0 < BLOCK ? d - j0 : BLOCK;
      const int16_t *wb = row + j0, *hb = hi + j0, *lb = lo + j0;
      int32_t sh = 0, sl = 0;
      for (intnat j = 0; j < n; j++) {
        sh += (int32_t)wb[j] * (int32_t)hb[j];
        sl += (int32_t)wb[j] * (int32_t)lb[j];
      }
      acc += (int64_t)sh * 256 + sl;
    }
    out[i] = Val_long(acc);
  }
}

static void mvm_wide(const int16_t *w, const value *x, value *out, intnat d)
{
  for (intnat i = 0; i < d; i++) {
    const int16_t *row = w + i * d;
    uint64_t acc = 0;
    for (intnat j = 0; j < d; j++)
      acc += (uint64_t)(int64_t)row[j] * (uint64_t)Long_val(x[j]);
    out[i] = Val_long((intnat)acc);
  }
}

value puma_xbar_mvm_exact(value v_image, value v_x, value v_out)
{
  intnat d = Wosize_val(v_x);
  const value *x = Op_val(v_x);
  value *out = Op_val(v_out);
  if (caml_string_length(v_image) == 0) {
    for (intnat i = 0; i < d; i++) out[i] = Val_long(0);
    return Val_unit;
  }
  const int16_t *w = (const int16_t *)String_val(v_image);
  for (intnat j = 0; j < d; j++) {
    intnat v = Long_val(x[j]);
    if (v < INT16_MIN || v > INT16_MAX) {
      mvm_wide(w, x, out, d);
      return Val_unit;
    }
  }
  mvm_split(w, x, out, d);
  return Val_unit;
}
