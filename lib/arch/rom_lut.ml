module Fixed = Puma_util.Fixed

let table_entries = 1024

let reference (op : Puma_isa.Instr.alu_op) x =
  match op with
  | Sigmoid -> 1.0 /. (1.0 +. exp (-.x))
  | Tanh -> tanh x
  | Exp -> exp x
  | Log -> if x <= 0.0 then Fixed.to_float (Fixed.of_raw Fixed.min_raw) else log x
  | Add | Sub | Mul | Div | Shl | Shr | And | Or | Invert | Relu | Rand
  | Subsample | Min | Max ->
      invalid_arg "Rom_lut.reference: not a transcendental op"

(* The table spans the full 16-bit input range: entry k holds f(lo + k*step)
   where lo..hi is the representable fixed-point interval. *)
let lo = Fixed.to_float (Fixed.of_raw Fixed.min_raw)
let hi = Fixed.to_float (Fixed.of_raw Fixed.max_raw)
let step = (hi -. lo) /. Float.of_int (table_entries - 1)

(* The knots are built at start-up and never written again. *)
let knots op =
  Array.init table_entries (fun k ->
      reference op (lo +. (Float.of_int k *. step)))

let sigmoid = knots Sigmoid
let tanh_ = knots Tanh
let exp_ = knots Exp
let log_ = knots Log

(* The interpolation the ROM computes. *)
let interpolate t x =
  let xf = Fixed.to_float x in
  let pos = (xf -. lo) /. step in
  let k = Float.to_int pos in
  let k = if k < 0 then 0 else if k >= table_entries - 1 then table_entries - 2 else k in
  let frac = pos -. Float.of_int k in
  let v = t.(k) +. (frac *. (t.(k + 1) -. t.(k))) in
  Fixed.of_float v

(* Inputs are 16-bit, so each op is exactly a table of the 65,536 output
   raws of [interpolate], indexed by input raw - min_raw and stored as
   native-endian int16 (128 KB). Built on first use: domains racing on an
   empty slot build identical strings and either may be published. *)
let luts = Array.init 4 (fun _ -> Atomic.make "")

let lut (op : Puma_isa.Instr.alu_op) =
  let slot, t =
    match op with
    | Sigmoid -> (0, sigmoid)
    | Tanh -> (1, tanh_)
    | Exp -> (2, exp_)
    | Log -> (3, log_)
    | _ -> invalid_arg "Rom_lut: not a transcendental op"
  in
  let cached = Atomic.get luts.(slot) in
  if cached <> "" then cached
  else begin
    let b = Bytes.create (2 * (Fixed.max_raw - Fixed.min_raw + 1)) in
    for r = Fixed.min_raw to Fixed.max_raw do
      Bytes.set_int16_ne b
        (2 * (r - Fixed.min_raw))
        (Fixed.to_raw (interpolate t (Fixed.of_raw r)))
    done;
    let s = Bytes.unsafe_to_string b in
    Atomic.set luts.(slot) s;
    s
  end

let[@inline] lookup lut raw =
  let r =
    if raw < Fixed.min_raw then Fixed.min_raw
    else if raw > Fixed.max_raw then Fixed.max_raw
    else raw
  in
  String.get_int16_ne lut (2 * (r - Fixed.min_raw))

let eval op (x : Fixed.t) = Fixed.of_raw (lookup (lut op) (x :> int))

let apply op =
  let lut = lut op in
  fun (a : int array) oa (d : int array) od w ->
    for k = 0 to w - 1 do
      d.(od + k) <- lookup lut a.(oa + k)
    done

let max_abs_error op =
  let worst = ref 0.0 in
  (* Probe between table knots where interpolation error peaks. *)
  for k = 0 to (table_entries * 4) - 1 do
    let x = lo +. (Float.of_int k *. step /. 4.0) in
    let fx = Fixed.of_float x in
    let got = Fixed.to_float (eval op fx) in
    let want = reference op (Fixed.to_float fx) in
    (* Clamp the reference into the representable range: saturation is
       expected behaviour, not LUT error. *)
    let want = Float.max lo (Float.min hi want) in
    worst := Float.max !worst (Float.abs (got -. want))
  done;
  !worst
