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

(* Built once at start-up and never written again, so domains that
   simulate or analyze concurrently share them safely. *)
let build op =
  Array.init table_entries (fun k ->
      reference op (lo +. (Float.of_int k *. step)))

let sigmoid = build Sigmoid
let tanh_ = build Tanh
let exp_ = build Exp
let log_ = build Log

let table (op : Puma_isa.Instr.alu_op) =
  match op with
  | Sigmoid -> sigmoid
  | Tanh -> tanh_
  | Exp -> exp_
  | Log -> log_
  | op -> build op

(* The interpolation body, shared by [eval] and callers that hoist the
   table lookup out of per-element loops (the fast-path ALU decoder):
   both spellings perform the identical float chain, so results are
   bit-identical. *)
let eval_with t x =
  let xf = Fixed.to_float x in
  let pos = (xf -. lo) /. step in
  let k = Float.to_int pos in
  let k = if k < 0 then 0 else if k >= table_entries - 1 then table_entries - 2 else k in
  let frac = pos -. Float.of_int k in
  let v = t.(k) +. (frac *. (t.(k + 1) -. t.(k))) in
  Fixed.of_float v

let eval op x = eval_with (table op) x

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
