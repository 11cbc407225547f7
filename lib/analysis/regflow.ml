module Instr = Puma_isa.Instr
module Operand = Puma_isa.Operand
module Bset = Absint.Bset

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

let clip width (base, w) =
  let lo = max 0 base and hi = min width (base + w) in
  (lo, max 0 (hi - lo))

let iter_range_w width set (base, w) =
  let lo, w = clip width (base, w) in
  for k = lo to lo + w - 1 do
    set k
  done

(* The two dataflow passes as {!Absint} domains over {!Absint.Bset}; their
   transfer functions close over one stream's effects array. *)

(* Forward must-defined: join is intersection (defined on every path). *)
module Defined = Absint.Make (struct
  type state = Bset.t

  let copy = Bset.copy
  let equal = Bset.equal

  let join a b =
    Bset.inter_into a b;
    a
end)

let defined_transfer width (eff : effects array) ~pc s =
  List.iter (iter_range_w width (Bset.set s)) eff.(pc).defs;
  s

(* Backward liveness: join is union (live on some path). *)
module Live = Absint.Make (struct
  type state = Bset.t

  let copy = Bset.copy
  let equal = Bset.equal

  let join a b =
    Bset.union_into a b;
    a
end)

let live_transfer width (eff : effects array) ~pc s =
  let e = eff.(pc) in
  List.iter (iter_range_w width (Bset.clear s)) e.defs;
  List.iter (iter_range_w width (Bset.set s)) e.strict;
  List.iter (iter_range_w width (Bset.set s)) e.soft;
  s

let solve_live width eff cfg =
  Live.solve ~direction:Absint.Backward
    ~entry:(fun () -> Bset.create width)
    ~transfer:(live_transfer width eff) cfg

(* One stream's CFG, effects and liveness, built once and shared by the
   dataflow checks here and {!Resource}'s register pressure. *)
type flow = { cfg : Cfg.t; eff : effects array; live_out : Bset.t option array }

let flow ~(layout : Operand.layout) code =
  let width = layout.Operand.total + Operand.num_scalar_regs in
  let cfg = Cfg.build code in
  let eff = Array.map (effects layout) code in
  { cfg; eff; live_out = solve_live width eff cfg }

let analyze ~(layout : Operand.layout) ~tile ~core { cfg; eff; live_out } =
  let width = layout.Operand.total + Operand.num_scalar_regs in
  let nb = Cfg.num_blocks cfg in
  if nb = 0 then []
  else begin
    let diags = ref [] in
    let iter_range set r = iter_range_w width set r in
    (* ---- Forward must-defined analysis (def before use). ---- *)
    let inb =
      Defined.solve
        ~entry:(fun () -> Bset.create width)
        ~transfer:(defined_transfer width eff) cfg
    in
    for b = 0 to nb - 1 do
      match inb.(b) with
      | None -> ()
      | Some entry_state ->
          if cfg.Cfg.reachable.(b) then begin
            let cur = Bset.copy entry_state in
            let blk = cfg.Cfg.blocks.(b) in
            for pc = blk.Cfg.first to blk.Cfg.last do
              let missing = ref None in
              List.iter
                (fun r ->
                  iter_range
                    (fun k ->
                      if !missing = None && not (Bset.get cur k) then
                        missing := Some k)
                    r)
                eff.(pc).strict;
              (match !missing with
              | Some k ->
                  diags :=
                    Diag.error ~code:"E-UBD" ~tile ~core ~pc
                      "register %s is read but not written on every path here"
                      (reg_name layout k)
                    :: !diags
              | None -> ());
              List.iter (iter_range (Bset.set cur)) eff.(pc).defs
            done
          end
    done;
    (* ---- Backward liveness (dead register writes). ---- *)
    for b = 0 to nb - 1 do
      if cfg.Cfg.reachable.(b) then begin
        let live =
          match live_out.(b) with
          | Some s -> Bset.copy s
          | None -> Bset.create width
        in
        let blk = cfg.Cfg.blocks.(b) in
        for pc = blk.Cfg.last downto blk.Cfg.first do
          let e = eff.(pc) in
          if e.defs <> [] then begin
            let any_live = ref false in
            List.iter
              (fun r ->
                iter_range (fun k -> if Bset.get live k then any_live := true) r)
              e.defs;
            if not !any_live then
              diags :=
                Diag.warning ~code:"W-DEADSTORE" ~tile ~core ~pc
                  "value written to %s is never read"
                  (reg_name layout (fst (List.hd e.defs)))
                :: !diags
          end;
          List.iter (iter_range (Bset.clear live)) e.defs;
          List.iter (iter_range (Bset.set live)) e.strict;
          List.iter (iter_range (Bset.set live)) e.soft
        done
      end
    done;
    (match Cfg.unreachable_pcs cfg with
    | [] -> ()
    | pc :: _ as pcs ->
        diags :=
          Diag.info ~code:"I-UNREACH" ~tile ~core ~pc
            "%d instruction(s) unreachable from the stream entry"
            (List.length pcs)
          :: !diags);
    List.rev !diags
  end
