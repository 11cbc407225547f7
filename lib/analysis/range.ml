(* Fixed-point value ranges: the interval transfer functions the symbolic
   run ({!Equiv.run}) applies once per interned term, and the range
   diagnostics it reports per pc. *)

module Instr = Puma_isa.Instr
module Operand = Puma_isa.Operand
module Fixed = Puma_util.Fixed

let vlo_top = Fixed.min_raw
let vhi_top = Fixed.max_raw
let sat_raw v = if v < vlo_top then vlo_top else if v > vhi_top then vhi_top else v

type flag = Clean | May of string | Must of string

(* Clamp an exact (unsaturated) result interval to the representable
   range, recording whether some or all of it is cut off. *)
let sat what lo hi =
  let flag =
    if lo >= vlo_top && hi <= vhi_top then Clean
    else if hi < vlo_top || lo > vhi_top then Must what
    else May what
  in
  (sat_raw lo, sat_raw hi, flag)

let corners f l1 h1 l2 h2 =
  let a = f l1 l2 and b = f l1 h2 and c = f h1 l2 and d = f h1 h2 in
  (min (min a b) (min c d), max (max a b) (max c d))

(* A VFU shift amount: the integer part of the operand, within [0, 15]. *)
let amount v =
  let n = v asr Fixed.frac_bits in
  if n < 0 then 0 else if n > 15 then 15 else n

let binop op l1 h1 l2 h2 =
  let name = Instr.alu_op_name op in
  let exact (lo, hi) = sat name lo hi in
  match (op : Instr.alu_op) with
  | Add -> exact (l1 + l2, h1 + h2)
  | Sub -> exact (l1 - h2, h1 - l2)
  | Mul ->
      let lo, hi = corners ( * ) l1 h1 l2 h2 in
      exact (Fixed.round_scale lo, Fixed.round_scale hi)
  | Div ->
      if l2 <= 0 && h2 >= 0 then
        if l2 = 0 && h2 = 0 then
          (* Division by zero saturates to the sign of the dividend. *)
          let lo = if l1 < 0 then vlo_top else vhi_top in
          let hi = if h1 >= 0 then vhi_top else vlo_top in
          (min lo hi, max lo hi, Must "div by zero")
        else (vlo_top, vhi_top, May "div")
      else
        (* Sign-definite divisor: the quotient is monotone in each
           argument over the box, so corners bound it. *)
        exact (corners (fun a b -> (a lsl Fixed.frac_bits) / b) l1 h1 l2 h2)
  | Shl ->
      exact (corners (fun a n -> a lsl amount n) l1 h1 l2 h2)
  | Shr ->
      let lo, hi = corners (fun a n -> a asr amount n) l1 h1 l2 h2 in
      (lo, hi, Clean)
  | And ->
      if l1 >= 0 && l2 >= 0 then (0, min h1 h2, Clean)
      else (vlo_top, vhi_top, Clean)
  | Or ->
      if l1 >= 0 && l2 >= 0 then (max l1 l2, vhi_top, Clean)
      else (vlo_top, vhi_top, Clean)
  | Min -> (min l1 l2, min h1 h2, Clean)
  | Max -> (max l1 l2, max h1 h2, Clean)
  | Invert | Relu | Sigmoid | Tanh | Log | Exp | Rand | Subsample ->
      (vlo_top, vhi_top, Clean)

let unop op l h =
  match (op : Instr.alu_op) with
  | Invert -> (-h - 1, -l - 1)
  | Relu -> (max 0 l, max 0 h)
  | Sigmoid | Tanh | Log | Exp ->
      (* The LUT samples a monotone non-decreasing function, so endpoint
         evaluation is exact on intervals; table values are in range by
         construction. *)
      let f v = Fixed.to_raw (Puma_arch.Rom_lut.eval op (Fixed.of_raw v)) in
      (f l, f h)
  | Rand -> (0, Fixed.to_raw Fixed.one)
  | Add | Sub | Mul | Div | Shl | Shr | And | Or | Subsample | Min | Max ->
      (vlo_top, vhi_top)

(* Weight signs are data, so the per-weight loop splits each raw with a
   sign mask ([raw asr 62] is -1 or 0) instead of branching, and reads
   the image directly rather than through out-of-line helpers.
   [raw - ((raw + max_raw) asr 62)] is the differential-pair clamp of
   -32768 to -32767 ({!Fixed.clamp_image}), folded into the pass so the
   crossbar's image is never built. *)
let mvm_bound dim w inl inh out_lo out_hi =
  let max_raw = Fixed.max_raw in
  for i = 0 to dim - 1 do
    let base = 2 * i * dim in
    let alo = ref 0 and ahi = ref 0 in
    for j = 0 to dim - 1 do
      let wij = String.get_int16_ne w (base + (2 * j)) in
      let wij = wij - ((wij + max_raw) asr 62) in
      let m = wij asr 62 in
      let wp = wij land lnot m and wn = wij land m in
      alo := !alo + (wp * inl.(j)) + (wn * inh.(j));
      ahi := !ahi + (wp * inh.(j)) + (wn * inl.(j))
    done;
    out_lo.(i) <- !alo;
    out_hi.(i) <- !ahi
  done

(* ---- Diagnostics. ---- *)

let saturation ~tile ~core ~pc ~every what =
  if every then
    Diag.error ~code:"E-OVERFLOW" ~tile ~core ~pc
      "%s saturates on every execution: the inferred result range lies \
       entirely outside the representable fixed-point range"
      what
  else
    Diag.warning ~code:"W-SAT" ~tile ~core ~pc
      "%s may saturate: part of the inferred result range falls outside the \
       representable fixed-point range"
      what

let dump ~layout ~tile ~core ~lo ~hi ~defined =
  let total = layout.Operand.total in
  let width = Array.length lo in
  let render v ~is_sreg =
    if is_sreg then string_of_int v
    else Printf.sprintf "%.4f" (Fixed.to_float (Fixed.of_raw v))
  in
  (* Group maximal runs of consecutively-indexed registers with the same
     interval into one info line; runs never straddle the vector/scalar
     boundary. *)
  let diags = ref [] in
  let k = ref 0 in
  while !k < width do
    if defined.(!k) then begin
      let e = ref !k in
      while
        !e + 1 < width
        && (!e + 1 < total) = (!k < total)
        && defined.(!e + 1)
        && lo.(!e + 1) = lo.(!k)
        && hi.(!e + 1) = hi.(!k)
      do
        incr e
      done;
      let is_sreg = !k >= total in
      let name =
        if !e = !k then Regflow.reg_name layout !k
        else
          Printf.sprintf "%s..%s" (Regflow.reg_name layout !k)
            (Regflow.reg_name layout !e)
      in
      diags :=
        Diag.info ~code:"I-RANGE" ~tile ~core "%s in [%s, %s]" name
          (render lo.(!k) ~is_sreg) (render hi.(!k) ~is_sreg)
        :: !diags;
      k := !e + 1
    end
    else incr k
  done;
  List.rev !diags
