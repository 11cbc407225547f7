module Instr = Puma_isa.Instr
module Operand = Puma_isa.Operand

(* Register effects of one instruction. [strict] uses participate in the
   def-before-use check; [soft] uses only keep values live (the MVM unit
   reads its whole XbarIn vector, but elements past the operand the
   program actually staged are legitimately zero). *)
type effects = {
  defs : (int * int) list;
  strict : (int * int) list;
  soft : (int * int) list;
}

let effects (layout : Operand.layout) (i : Instr.t) : effects =
  let total = layout.Operand.total in
  let dim = layout.Operand.mvmu_dim in
  let num_mvmus = Operand.size_of layout Operand.Xbar_in / dim in
  let sreg s = (total + s, 1) in
  let sreg_of_addr = function
    | Instr.Imm_addr _ -> []
    | Instr.Sreg_addr s -> [ sreg s ]
  in
  let none = { defs = []; strict = []; soft = [] } in
  match i with
  | Mvm { mask; _ } ->
      let ranges base =
        List.filter_map
          (fun m ->
            if m < num_mvmus && mask land (1 lsl m) <> 0 then
              Some (base + (m * dim), dim)
            else None)
          (List.init num_mvmus Fun.id)
      in
      {
        defs = ranges (Operand.base_of layout Operand.Xbar_out);
        strict = [];
        soft = ranges (Operand.base_of layout Operand.Xbar_in);
      }
  | Alu { op; dest; src1; src2; vec_width } ->
      let w1 = if op = Instr.Subsample then 2 * vec_width else vec_width in
      let strict =
        if Instr.alu_op_arity op = 1 then [ (src1, w1) ]
        else [ (src1, w1); (src2, vec_width) ]
      in
      { defs = [ (dest, vec_width) ]; strict; soft = [] }
  | Alui { dest; src1; vec_width; _ } ->
      { defs = [ (dest, vec_width) ]; strict = [ (src1, vec_width) ]; soft = [] }
  | Alu_int { dest; src1; src2; _ } ->
      { defs = [ sreg dest ]; strict = [ sreg src1; sreg src2 ]; soft = [] }
  | Set { dest; _ } -> { defs = [ (dest, 1) ]; strict = []; soft = [] }
  | Set_sreg { dest; _ } -> { defs = [ sreg dest ]; strict = []; soft = [] }
  | Copy { dest; src; vec_width } ->
      { defs = [ (dest, vec_width) ]; strict = [ (src, vec_width) ]; soft = [] }
  | Load { dest; addr; vec_width } ->
      { defs = [ (dest, vec_width) ]; strict = sreg_of_addr addr; soft = [] }
  | Store { src; addr; vec_width; _ } ->
      { defs = []; strict = (src, vec_width) :: sreg_of_addr addr; soft = [] }
  | Brn { src1; src2; _ } ->
      { defs = []; strict = [ sreg src1; sreg src2 ]; soft = [] }
  | Jmp _ | Halt | Send _ | Receive _ -> none

let reg_name (layout : Operand.layout) idx =
  if idx < layout.Operand.total then
    Format.asprintf "%a" (Operand.pp_reg layout) idx
  else Printf.sprintf "s%d" (idx - layout.Operand.total)

let width (layout : Operand.layout) =
  layout.Operand.total + Operand.num_scalar_regs

let iter_range width f (base, w) =
  for k = max 0 base to min width (base + w) - 1 do
    f k
  done

let live_walk ~layout (eff : effects array) trace ~flip =
  let width = width layout in
  let live = Bytes.make width '\000' in
  let set pc on =
    let c = if on then '\001' else '\000' in
    iter_range width (fun k ->
        if Bytes.get live k <> c then begin
          Bytes.set live k c;
          flip ~pc k on
        end)
  in
  for t = Array.length trace - 1 downto 0 do
    let pc = trace.(t) in
    let e = eff.(pc) in
    List.iter (set pc false) e.defs;
    List.iter (set pc true) e.strict;
    List.iter (set pc true) e.soft
  done

(* Two walks over the stream's executed pcs: forward for reads of words
   no earlier instruction wrote, backward for writes no later one read.
   Scalar registers are concrete in the run, so this one path is the
   stream's path for every input. *)
let analyze ~(layout : Operand.layout) ~tile ~core ~finished code trace =
  let width = width layout in
  let n = Array.length code in
  let eff = Array.map (effects layout) code in
  let diags = ref [] in
  let flags len = Bytes.make len '\000' in
  let get b k = Bytes.get b k <> '\000' in
  let put b k = Bytes.set b k '\001' in
  (* ---- Forward: a pc's first strict read of an unwritten word. ---- *)
  let written = flags width and flagged = flags n in
  let write = iter_range width (put written) in
  Array.iter
    (fun pc ->
      let e = eff.(pc) in
      if not (get flagged pc) then
        List.iter
          (iter_range width (fun k ->
               if not (get written k || get flagged pc) then begin
                 put flagged pc;
                 diags :=
                   Diag.error ~code:"E-UBD" ~tile ~core ~pc
                     "register %s is read before anything writes it"
                     (reg_name layout k)
                   :: !diags
               end))
          e.strict;
      List.iter write e.defs)
    trace;
  (* ---- Backward: a write whose words are still live where it kills
     them was read. A stream the run did not finish may still read its
     writes, or reach the pcs it skipped. ---- *)
  if finished then begin
    let read = flags n and ran = flags n in
    Array.iter (put ran) trace;
    live_walk ~layout eff trace ~flip:(fun ~pc _ on -> if not on then put read pc);
    Array.iteri
      (fun pc (e : effects) ->
        if get ran pc && e.defs <> [] && not (get read pc) then
          diags :=
            Diag.warning ~code:"W-DEADSTORE" ~tile ~core ~pc
              "value written to %s is never read"
              (reg_name layout (fst (List.hd e.defs)))
            :: !diags)
      eff;
    match List.filter (fun pc -> not (get ran pc)) (List.init n Fun.id) with
    | [] -> ()
    | pc :: _ as pcs ->
        diags :=
          Diag.info ~code:"I-UNREACH" ~tile ~core ~pc
            "%d instruction(s) never executed: the stream's one path skips \
             them"
            (List.length pcs)
          :: !diags
  end;
  List.rev !diags
