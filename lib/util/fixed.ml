type t = int

let frac_bits = 12
let total_bits = 16
let scale = Float.of_int (1 lsl frac_bits)
let min_raw = -(1 lsl (total_bits - 1))
let max_raw = (1 lsl (total_bits - 1)) - 1

let[@inline] saturate r =
  if r < min_raw then min_raw else if r > max_raw then max_raw else r

let of_raw r = saturate r
let to_raw t = t
let zero = 0
let one = 1 lsl frac_bits

(* The one quantizer. Inside the saturation guards |scaled| < 2^15, so
   the fraction [r] left after truncating toward zero is exact, and
   truncating [2r] adds the carry of rounding half away from zero, as
   [Float.round] does, with neither a call nor a branch. [@inline] keeps
   the image loops below call-free; other modules call it out of line. *)
let[@inline] of_float f =
  if Float.is_nan f then 0
  else
    let scaled = f *. scale in
    if scaled >= Float.of_int max_raw then max_raw
    else if scaled <= Float.of_int min_raw then min_raw
    else
      let t = Float.to_int scaled in
      let r = scaled -. Float.of_int t in
      t + Float.to_int (r +. r)

let to_float t = Float.of_int t /. scale
let[@inline] add a b = saturate (a + b)
let[@inline] sub a b = saturate (a - b)

(* Round-to-nearest (ties away from zero) rescale of a product or
   accumulator carrying 2*frac_bits fraction bits down to frac_bits,
   unclamped: the one rounding rule the simulator and the range analysis
   share. *)
let[@inline] round_scale p =
  let half = 1 lsl (frac_bits - 1) in
  if p >= 0 then (p + half) asr frac_bits else -((-p + half) asr frac_bits)

let[@inline] rescale p = saturate (round_scale p)
let[@inline] mul a b = rescale (a * b)

let div a b =
  if b = 0 then if a >= 0 then max_raw else min_raw
  else saturate ((a lsl frac_bits) / b)

let neg a = saturate (-a)
let abs a = saturate (Stdlib.abs a)
let[@inline] min (a : int) b = if a <= b then a else b
let[@inline] max (a : int) b = if a >= b then a else b
let compare = Int.compare
let equal = Int.equal
let shift_left a n = saturate (a lsl n)
let shift_right a n = a asr n

(* Bitwise operations act on the 16-bit pattern; reinterpret back as a
   signed 16-bit value. *)
let to_pattern a = a land 0xFFFF
let of_pattern p = if p land 0x8000 <> 0 then p - 0x10000 else p
let logand a b = of_pattern (to_pattern a land to_pattern b)
let logor a b = of_pattern (to_pattern a lor to_pattern b)
let lognot a = of_pattern (lnot (to_pattern a) land 0xFFFF)

let mul_acc xs ys =
  let n = Stdlib.min (Array.length xs) (Array.length ys) in
  let acc = ref 0 in
  for i = 0 to n - 1 do
    acc := !acc + (xs.(i) * ys.(i))
  done;
  !acc

let of_acc = rescale

(* Vector kernels over raw operands, one call per instruction: dune's dev
   profile builds with -opaque, so a loop outside this module pays a call
   per scalar op. Each inlines its scalar definition and walks [k] upward,
   so overlapping source and destination ranges behave as the scalar
   loop does. The one-source kernels come first: below them, [add], [sub],
   [mul], [min] and [max] name the vector kernels. *)
module Vec = struct
  type v = int array

  let add_imm imm (a : v) oa (d : v) od w =
    let imm = saturate imm in
    for k = 0 to w - 1 do
      d.(od + k) <- add (saturate a.(oa + k)) imm
    done

  let mul_imm imm (a : v) oa (d : v) od w =
    let imm = saturate imm in
    for k = 0 to w - 1 do
      d.(od + k) <- mul (saturate a.(oa + k)) imm
    done

  let relu (a : v) oa (d : v) od w =
    for k = 0 to w - 1 do
      d.(od + k) <- max zero (saturate a.(oa + k))
    done

  let of_acc (a : v) oa (d : v) od w =
    for k = 0 to w - 1 do
      d.(od + k) <- rescale a.(oa + k)
    done

  let add (a : v) oa (b : v) ob (d : v) od w =
    for k = 0 to w - 1 do
      d.(od + k) <- add (saturate a.(oa + k)) (saturate b.(ob + k))
    done

  let sub (a : v) oa (b : v) ob (d : v) od w =
    for k = 0 to w - 1 do
      d.(od + k) <- sub (saturate a.(oa + k)) (saturate b.(ob + k))
    done

  let mul (a : v) oa (b : v) ob (d : v) od w =
    for k = 0 to w - 1 do
      d.(od + k) <- mul (saturate a.(oa + k)) (saturate b.(ob + k))
    done

  let min (a : v) oa (b : v) ob (d : v) od w =
    for k = 0 to w - 1 do
      d.(od + k) <- min (saturate a.(oa + k)) (saturate b.(ob + k))
    done

  let max (a : v) oa (b : v) ob (d : v) od w =
    for k = 0 to w - 1 do
      d.(od + k) <- max (saturate a.(oa + k)) (saturate b.(ob + k))
    done
end

(* Crossbar weight images: one native-endian int16 raw per weight. The
   per-weight loops below stay in this module: dune's dev profile builds
   with -opaque, so callers elsewhere pay a call per {!image_raw}. *)
let image_of_mat (m : Tensor.mat) =
  let data = m.Tensor.data in
  let b = Bytes.create (2 * Array.length data) in
  for k = 0 to Array.length data - 1 do
    Bytes.set_int16_ne b (2 * k) (of_float data.(k))
  done;
  Bytes.unsafe_to_string b

(* The zero-padded dim x dim block of [m] at ([row], [col]), in place. *)
let image_of_sub_block (m : Tensor.mat) ~row ~col ~dim =
  let data = m.Tensor.data and cols = m.Tensor.cols in
  let b = Bytes.make (2 * dim * dim) '\000' in
  for i = 0 to min dim (m.Tensor.rows - row) - 1 do
    let src = ((row + i) * cols) + col in
    for j = 0 to min dim (cols - col) - 1 do
      Bytes.set_int16_ne b (2 * ((i * dim) + j)) (of_float data.(src + j))
    done
  done;
  Bytes.unsafe_to_string b

let image_raw img k = String.get_int16_ne img (2 * k)

let clamp_image img =
  let n = String.length img / 2 in
  let k = ref 0 in
  while !k < n && String.get_int16_ne img (2 * !k) <> min_raw do
    incr k
  done;
  if !k = n then img
  else begin
    let b = Bytes.of_string img in
    for k = !k to n - 1 do
      if String.get_int16_ne img (2 * k) = min_raw then
        Bytes.set_int16_ne b (2 * k) (-max_raw)
    done;
    Bytes.unsafe_to_string b
  end

let to_string t = Printf.sprintf "%.6f" (to_float t)
let pp fmt t = Format.pp_print_string fmt (to_string t)
