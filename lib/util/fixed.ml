type t = int

let frac_bits = 12
let total_bits = 16
let scale = Float.of_int (1 lsl frac_bits)
let min_raw = -(1 lsl (total_bits - 1))
let max_raw = (1 lsl (total_bits - 1)) - 1

let saturate r =
  if r < min_raw then min_raw else if r > max_raw then max_raw else r

let of_raw r = saturate r
let to_raw t = t
let zero = 0
let one = 1 lsl frac_bits

let of_float f =
  if Float.is_nan f then 0
  else
    let scaled = f *. scale in
    if scaled >= Float.of_int max_raw then max_raw
    else if scaled <= Float.of_int min_raw then min_raw
    else saturate (Float.to_int (Float.round scaled))

let to_float t = Float.of_int t /. scale
let add a b = saturate (a + b)
let sub a b = saturate (a - b)

(* Round-to-nearest rescale of a product/accumulator carrying 2*frac_bits
   fraction bits down to frac_bits. *)
let rescale p =
  let half = 1 lsl (frac_bits - 1) in
  let rounded =
    if p >= 0 then (p + half) asr frac_bits else -(-p + half) asr frac_bits
  in
  saturate rounded

let mul a b = rescale (a * b)

let div a b =
  if b = 0 then if a >= 0 then max_raw else min_raw
  else saturate ((a lsl frac_bits) / b)

let neg a = saturate (-a)
let abs a = saturate (Stdlib.abs a)
let min a b = Stdlib.min a b
let max a b = Stdlib.max a b
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

(* Crossbar weight images: one native-endian int16 raw per weight. *)
let image_of_mat (m : Tensor.mat) =
  let b = Bytes.create (2 * Array.length m.Tensor.data) in
  Array.iteri (fun k v -> Bytes.set_int16_ne b (2 * k) (of_float v)) m.Tensor.data;
  Bytes.unsafe_to_string b

let image_raw img k = String.get_int16_ne img (2 * k)

let clamp_image img =
  let n = String.length img / 2 in
  let rec has k = k < n && (image_raw img k = min_raw || has (k + 1)) in
  if not (has 0) then img
  else begin
    let b = Bytes.of_string img in
    for k = 0 to n - 1 do
      if image_raw img k = min_raw then Bytes.set_int16_ne b (2 * k) (-max_raw)
    done;
    Bytes.unsafe_to_string b
  end

let to_string t = Printf.sprintf "%.6f" (to_float t)
let pp fmt t = Format.pp_print_string fmt (to_string t)
