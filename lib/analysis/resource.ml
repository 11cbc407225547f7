(* Static per-core resource and cost estimation.

   Three estimators over a compiled program:

   - instruction-memory budgets: encoded bytes per stream against the
     per-core / per-tile imem capacity, with per-layer attribution when
     the compiler's provenance map is available (so an over-budget
     stream can name the source-graph layers responsible);
   - register pressure: liveness-based high-water marks per register
     space against the physical capacities, along each core stream's
     executed path;
   - cost lower bounds: each stream's pcs at the symbolic run's trip
     counts, each instruction costed by the simulator's
     own per-instruction table ({!Puma_arch.Cost}: occupancy in cycles,
     dynamic pJ). The program bound takes the slowest stream (they run
     concurrently); energy sums across streams. Both are sound lower
     bounds for any execution the cycle-approximate simulator can
     produce: it retires the same instructions, charges the same table
     and only adds stalls and contention on top.

   The last two walk the pcs one symbolic run ({!Equiv.run}) records
   for each stream, which is the stream's one path for every input. *)

module Instr = Puma_isa.Instr
module Operand = Puma_isa.Operand
module Program = Puma_isa.Program
module Encode = Puma_isa.Encode
module Config = Puma_hwmodel.Config
module Cost = Puma_arch.Cost

type layer_of = tile:int -> core:int option -> pc:int -> string option

type pressure = {
  xin_hw : int;
  xin_cap : int;
  xout_hw : int;
  xout_cap : int;
  gpr_hw : int;
  gpr_cap : int;
  sreg_hw : int;
}

type stream = {
  tile : int;
  core : int option;  (** [None] for the tile control unit stream. *)
  instrs : int;
  imem_bytes : int;
  imem_capacity : int;
  cycles : int;
  energy_pj : float;
  pressure : pressure option;  (** [None] for tile streams. *)
}

type t = {
  streams : stream list;
  cycle_lower_bound : int;
  energy_lower_bound_pj : float;
}

(* ---- Liveness-based register pressure. ---- *)

(* The peak live words per space (xin, xout, gpr, sregs, which tile the
   combined register space in that order) along the stream's executed
   path ({!Equiv.execution}). The walk reports only the words that flip,
   so each pc costs its operands, not the register file's width. *)
let pressure_of layout code trace =
  let total = layout.Operand.total in
  let xout_b = Operand.base_of layout Operand.Xbar_out
  and gpr_b = Operand.base_of layout Operand.Gpr in
  let space k =
    if k < xout_b then 0 else if k < gpr_b then 1 else if k < total then 2 else 3
  in
  let live_words = Array.make 4 0 and peak = Array.make 4 0 in
  Regflow.live_walk ~layout
    (Array.map (Regflow.effects layout) code)
    trace
    ~flip:(fun ~pc:_ k on ->
      let s = space k in
      live_words.(s) <- (live_words.(s) + if on then 1 else -1);
      if live_words.(s) > peak.(s) then peak.(s) <- live_words.(s));
  {
    xin_hw = peak.(0);
    xin_cap = Operand.size_of layout Operand.Xbar_in;
    xout_hw = peak.(1);
    xout_cap = Operand.size_of layout Operand.Xbar_out;
    gpr_hw = peak.(2);
    gpr_cap = Operand.size_of layout Operand.Gpr;
    sreg_hw = peak.(3);
  }

(* ---- Estimation over a whole program. ---- *)

(* Every stream is costed with the simulator's own table ({!Cost}) at the
   trip counts of the symbolic run ({!Equiv.run}), whose concrete scalar
   registers execute each stream's control flow exactly; the simulator
   only adds stalls and contention on top. A run that stopped short
   counts a prefix of every stream, which is still a lower bound.

   The simulator ends a stream at the RETIRE time of its final
   instruction: a core whose pc runs off the end reads as halted
   immediately, so the last instruction's occupancy never extends the
   makespan (an explicit trailing Halt costs nothing either way). The
   cycle bound therefore excludes the last executed instruction's
   cycles. *)
let estimate ?run (p : Program.t) =
  let config = p.Program.config in
  let layout = Operand.layout config in
  let run = match run with Some r -> r | None -> Equiv.run ~ranges:false p in
  let streams = ref [] in
  let add ~pos ~tile ~core ~imem_capacity code =
    let costs = Array.map (Cost.of_instr config layout) code in
    let trace =
      match run.Equiv.executions ~pos ~core with
      | Some e -> e.Equiv.trace
      | None -> [||]
    in
    let counts = Array.make (Array.length code) 0 in
    Array.iter (fun pc -> counts.(pc) <- counts.(pc) + 1) trace;
    let cycles = ref 0 and energy_pj = ref 0. in
    Array.iteri
      (fun pc n ->
        cycles := !cycles + (n * costs.(pc).Cost.cycles);
        energy_pj := !energy_pj +. (float_of_int n *. Cost.energy_pj config costs.(pc)))
      counts;
    let n = Array.length trace in
    if n > 0 then cycles := !cycles - costs.(trace.(n - 1)).Cost.cycles;
    streams :=
      {
        tile;
        core;
        instrs = Array.length code;
        imem_bytes = Encode.program_bytes code;
        imem_capacity;
        cycles = max 0 !cycles;
        energy_pj = !energy_pj;
        pressure =
          (if core = None then None else Some (pressure_of layout code trace));
      }
      :: !streams
  in
  Array.iteri
    (fun pos (tp : Program.tile_program) ->
      let tile = tp.Program.tile_index in
      Array.iteri
        (fun core code ->
          if Array.length code > 0 then
            add ~pos ~tile ~core:(Some core)
              ~imem_capacity:config.Config.imem_core_bytes code)
        tp.Program.core_code;
      let code = tp.Program.tile_code in
      if Array.length code > 0 then
        add ~pos ~tile ~core:None ~imem_capacity:config.Config.imem_tile_bytes
          code)
    p.Program.tiles;
  let streams = List.rev !streams in
  {
    streams;
    cycle_lower_bound =
      List.fold_left (fun acc s -> max acc s.cycles) 0 streams;
    (* This sum and the simulator's ledger round their additions in
       different orders, so on a straight-line program (bound = energy in
       exact arithmetic) either can land a few ulps above the other.
       Shaving a relative 1e-9, far above the rounding error of a run's
       additions and far below any printed precision, keeps the bound
       at or under the ledger. *)
    energy_lower_bound_pj =
      (1. -. 1e-9)
      *. List.fold_left (fun acc s -> acc +. s.energy_pj) 0. streams;
  }

(* ---- Instruction-memory attribution to source-graph layers. ---- *)

(* Encoded bytes of a stream attributed per source layer, largest first.
   Instructions without provenance (runtime glue: batch-loop control,
   spill code before provenance starts) land on "(runtime)". *)
let imem_breakdown ~(layer_of : layer_of) (p : Program.t) ~tile ~core =
  match
    Array.fold_left
      (fun acc (tp : Program.tile_program) ->
        if tp.Program.tile_index = tile then
          Some
            (match core with
            | Some c when c < Array.length tp.Program.core_code ->
                tp.Program.core_code.(c)
            | Some _ -> [||]
            | None -> tp.Program.tile_code)
        else acc)
      None p.Program.tiles
  with
  | None -> []
  | Some code ->
      let per_instr =
        if Array.length code = 0 then 0
        else Encode.program_bytes code / Array.length code
      in
      let tbl = Hashtbl.create 16 in
      Array.iteri
        (fun pc _ ->
          let label =
            match layer_of ~tile ~core ~pc with
            | Some l -> l
            | None -> "(runtime)"
          in
          Hashtbl.replace tbl label
            (per_instr + (try Hashtbl.find tbl label with Not_found -> 0)))
        code;
      Hashtbl.fold (fun l b acc -> (l, b) :: acc) tbl []
      |> List.sort (fun (l1, b1) (l2, b2) ->
             if b1 <> b2 then compare b2 b1 else compare l1 l2)

let render_breakdown ~capacity breakdown =
  let total = List.fold_left (fun a (_, b) -> a + b) 0 breakdown in
  let top = List.filteri (fun i _ -> i < 4) breakdown in
  let parts =
    List.map
      (fun (l, b) ->
        Printf.sprintf "%s %d B (%d%%)" l b
          (if total = 0 then 0 else 100 * b / total))
      top
  in
  Printf.sprintf "%d B over the %d B budget; largest layers: %s"
    (total - capacity) capacity
    (String.concat ", " parts)

(* ---- Diagnostics. ---- *)

let report (t : t) =
  let diags = ref [] in
  List.iter
    (fun s ->
      match (s.pressure, s.core) with
      | Some pr, Some core ->
          diags :=
            Diag.info ~code:"I-PRESSURE" ~tile:s.tile ~core
              "register pressure high-water: gpr %d/%d, xin %d/%d, xout \
               %d/%d, sregs %d/%d words; imem %d/%d bytes"
              pr.gpr_hw pr.gpr_cap pr.xin_hw pr.xin_cap pr.xout_hw pr.xout_cap
              pr.sreg_hw Operand.num_scalar_regs s.imem_bytes s.imem_capacity
            :: !diags
      | _ -> ())
    t.streams;
  diags :=
    Diag.info ~code:"I-COST"
      "static lower bound over %d streams: %d cycles, %.1f nJ dynamic energy"
      (List.length t.streams) t.cycle_lower_bound
      (t.energy_lower_bound_pj /. 1000.)
    :: !diags;
  List.rev !diags
