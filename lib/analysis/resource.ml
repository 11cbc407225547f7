(* Static per-core resource and cost estimation.

   Three estimators over a compiled program, no simulation involved:

   - instruction-memory budgets: encoded bytes per stream against the
     per-core / per-tile imem capacity, with per-layer attribution when
     the compiler's provenance map is available (so an over-budget
     stream can name the source-graph layers responsible);
   - register pressure: liveness-based high-water marks per register
     space against the physical capacities;
   - cost lower bounds: the cheapest terminating path through every
     stream's CFG under the {!Puma_hwmodel.Latency} model (cycles) and
     the simulator's per-event energy charges (dynamic pJ). The program
     bound takes the slowest stream (they run concurrently); energy sums
     across streams. Both are sound lower bounds for any execution the
     cycle-approximate simulator can produce: the simulator charges the
     same per-instruction costs and only adds stalls, contention and
     repeated loop trips on top. *)

module Instr = Puma_isa.Instr
module Operand = Puma_isa.Operand
module Program = Puma_isa.Program
module Encode = Puma_isa.Encode
module Config = Puma_hwmodel.Config
module Latency = Puma_hwmodel.Latency
module Energy = Puma_hwmodel.Energy

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
  min_cycles : int;
  min_energy_pj : float;
  pressure : pressure option;  (** [None] for tile streams. *)
}

type t = {
  streams : stream list;
  cycle_lower_bound : int;
  energy_lower_bound_pj : float;
}

(* ---- Per-instruction latency and energy mirrors. ---- *)

let core_cycles config (i : Instr.t) =
  match i with
  | Instr.Mvm _ -> Latency.mvm config
  | Alu { vec_width; _ } | Alui { vec_width; _ } ->
      Latency.alu config ~vec_width
  | Alu_int _ -> Latency.alu_int
  | Set _ | Set_sreg _ -> Latency.set
  | Copy { vec_width; _ } -> Latency.copy config ~vec_width
  | Load { vec_width; _ } -> Latency.load config ~vec_width
  | Store { vec_width; _ } -> Latency.store config ~vec_width
  | Jmp _ -> Latency.jump
  | Brn _ -> Latency.branch
  | Halt -> 0
  | Send { vec_width; _ } -> Latency.send_occupancy config ~vec_width
  | Receive { vec_width; _ } -> Latency.receive_occupancy config ~vec_width

let tile_cycles config (i : Instr.t) =
  match i with
  | Instr.Send { vec_width; _ } -> Latency.send_occupancy config ~vec_width
  | Receive { vec_width; _ } -> Latency.receive_occupancy config ~vec_width
  | _ -> 0

(* Dynamic energy of one retired instruction, mirroring the charges the
   simulator's core ([Puma_arch.Core.step]) records per event. *)
let core_energy_pj config layout =
  let pj = Energy.per_event_pj config in
  let fetch = pj Energy.Fetch
  and vfu = pj Energy.Vfu
  and sfu = pj Energy.Sfu
  and lut = pj Energy.Lut
  and rf = pj Energy.Rf
  and xreg = pj Energy.Xbar_reg
  and mvm = pj Energy.Mvm
  and smem = pj Energy.Smem
  and bus = pj Energy.Bus
  and attr = pj Energy.Attr
  and fifo = pj Energy.Fifo in
  let reg base width =
    match Operand.space_of layout base with
    | Operand.Xbar_in | Operand.Xbar_out -> xreg *. float_of_int width
    | Operand.Gpr -> rf *. float_of_int width
  in
  let dim = layout.Operand.mvmu_dim in
  let num_mvmus = Operand.size_of layout Operand.Xbar_in / dim in
  fun (i : Instr.t) ->
    match i with
    | Instr.Mvm { mask; _ } ->
        let active = ref 0 in
        for m = 0 to num_mvmus - 1 do
          if mask land (1 lsl m) <> 0 then incr active
        done;
        fetch +. (float_of_int !active *. (mvm +. (xreg *. float_of_int (2 * dim))))
    | Alu { op; dest; src1; src2; vec_width } ->
        let srcs =
          if op = Instr.Subsample then reg src1 (2 * vec_width)
          else if Instr.alu_op_arity op = 1 then reg src1 vec_width
          else reg src1 vec_width +. reg src2 vec_width
        in
        let lut_e =
          if Instr.alu_op_is_transcendental op then
            lut *. float_of_int vec_width
          else 0.
        in
        fetch +. srcs +. reg dest vec_width
        +. (vfu *. float_of_int vec_width)
        +. lut_e
    | Alui { dest; src1; vec_width; _ } ->
        fetch +. reg src1 vec_width +. reg dest vec_width
        +. (vfu *. float_of_int vec_width)
    | Alu_int _ | Set_sreg _ | Brn _ -> fetch +. sfu
    | Set { dest; _ } -> fetch +. reg dest 1
    | Copy { dest; src; vec_width } ->
        fetch +. reg src vec_width +. reg dest vec_width
    | Load { dest; vec_width; _ } ->
        fetch +. reg dest vec_width
        +. ((smem +. bus) *. float_of_int vec_width)
        +. attr
    | Store { src; vec_width; _ } ->
        fetch +. reg src vec_width
        +. ((smem +. bus) *. float_of_int vec_width)
        +. attr
    | Jmp _ -> fetch
    | Halt -> 0.
    | Send { vec_width; _ } ->
        ((smem +. bus) *. float_of_int vec_width) +. attr
    | Receive { vec_width; _ } ->
        ((fifo +. smem +. bus) *. float_of_int vec_width) +. attr

let tile_energy_pj config (i : Instr.t) =
  let pj = Energy.per_event_pj config in
  match i with
  | Instr.Send { vec_width; _ } ->
      ((pj Energy.Smem +. pj Energy.Bus) *. float_of_int vec_width)
      +. pj Energy.Attr
  | Receive { vec_width; _ } ->
      ((pj Energy.Fifo +. pj Energy.Smem +. pj Energy.Bus)
      *. float_of_int vec_width)
      +. pj Energy.Attr
  | _ -> 0.

(* ---- Cheapest terminating path through a stream CFG. ---- *)

(* [min_path cost cfg] is the minimum of [sum cost(pc)] over paths from
   the entry block to any exit (a block with no successors: Halt,
   falling off the stream, or an out-of-range target). Costs are
   non-negative, so plain relaxation converges. If no exit is reachable
   (an intentionally endless stream), the cheapest full traversal of any
   reachable block is still a sound lower bound. *)
let min_path cost (cfg : Cfg.t) =
  let nb = Cfg.num_blocks cfg in
  if nb = 0 then 0.
  else begin
    let block_cost =
      Array.init nb (fun b ->
          let blk = cfg.Cfg.blocks.(b) in
          let acc = ref 0. in
          for pc = blk.Cfg.first to blk.Cfg.last do
            acc := !acc +. cost pc
          done;
          !acc)
    in
    let dist = Array.make nb infinity in
    dist.(0) <- 0.;
    let changed = ref true in
    while !changed do
      changed := false;
      for b = 0 to nb - 1 do
        if dist.(b) < infinity then begin
          let through = dist.(b) +. block_cost.(b) in
          List.iter
            (fun s ->
              if through < dist.(s) then begin
                dist.(s) <- through;
                changed := true
              end)
            cfg.Cfg.blocks.(b).Cfg.succs
        end
      done
    done;
    let best = ref infinity in
    for b = 0 to nb - 1 do
      if dist.(b) < infinity then begin
        let full = dist.(b) +. block_cost.(b) in
        if cfg.Cfg.blocks.(b).Cfg.succs = [] && full < !best then best := full
      end
    done;
    if !best < infinity then !best
    else begin
      (* No reachable exit: fall back to the cheapest complete block. *)
      for b = 0 to nb - 1 do
        if dist.(b) < infinity then
          best := min !best (dist.(b) +. block_cost.(b))
      done;
      if !best < infinity then !best else 0.
    end
  end

(* ---- Liveness-based register pressure. ---- *)

let pressure_of layout ({ cfg; eff; live_out } : Regflow.flow) =
  let total = layout.Operand.total in
  let width = total + Operand.num_scalar_regs in
  let xout_b = Operand.base_of layout Operand.Xbar_out
  and gpr_b = Operand.base_of layout Operand.Gpr in
  (* Live words per space (xin, xout, gpr, sregs), which tile the bitset
     in that order. A def or use moves a count only when it flips a bit,
     so each pc costs its operands, not the register file's width. *)
  let space k =
    if k < xout_b then 0 else if k < gpr_b then 1 else if k < total then 2 else 3
  in
  let live_words = Array.make 4 0 and peak = Array.make 4 0 in
  let measure () =
    for s = 0 to 3 do
      if live_words.(s) > peak.(s) then peak.(s) <- live_words.(s)
    done
  in
  let iter_range f (base, w) =
    let lo = max 0 base and hi = min width (base + w) in
    for k = lo to hi - 1 do
      f k
    done
  in
  for b = 0 to Cfg.num_blocks cfg - 1 do
    match live_out.(b) with
    | None -> ()
    | Some out ->
        if cfg.Cfg.reachable.(b) then begin
          let live = Absint.Bset.copy out in
          Array.fill live_words 0 4 0;
          for k = 0 to width - 1 do
            if Absint.Bset.get live k then
              live_words.(space k) <- live_words.(space k) + 1
          done;
          measure ();
          let flip on k =
            if Absint.Bset.get live k <> on then begin
              if on then Absint.Bset.set live k else Absint.Bset.clear live k;
              live_words.(space k) <- live_words.(space k) + if on then 1 else -1
            end
          in
          let blk = cfg.Cfg.blocks.(b) in
          for pc = blk.Cfg.last downto blk.Cfg.first do
            let e = eff.(pc) in
            List.iter (iter_range (flip false)) e.Regflow.defs;
            List.iter (iter_range (flip true)) e.Regflow.strict;
            List.iter (iter_range (flip true)) e.Regflow.soft;
            measure ()
          done
        end
  done;
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

(* The simulator ends a stream at the RETIRE time of its final
   instruction: a core whose pc runs off the end reads as halted
   immediately, so the last instruction's occupancy never extends the
   makespan (an explicit trailing Halt costs nothing either way). A
   sound per-stream bound therefore excludes the terminal instruction's
   cost; every terminating path ends at the same final pc, so this is
   one subtraction. *)
let trailing_cost cost code =
  match code.(Array.length code - 1) with
  | Puma_isa.Instr.Halt -> 0.0
  | i -> cost i

let estimate ?flows (p : Program.t) =
  let config = p.Program.config in
  let layout = Operand.layout config in
  let streams = ref [] in
  let add ~tile ~core ~cycles ~energy ~imem_capacity ~pressure cfg code =
    let min_cycles =
      min_path (fun pc -> float_of_int (cycles code.(pc))) cfg
      -. trailing_cost (fun i -> float_of_int (cycles i)) code
    in
    streams :=
      {
        tile;
        core;
        instrs = Array.length code;
        imem_bytes = Encode.program_bytes code;
        imem_capacity;
        min_cycles = int_of_float (Float.max 0.0 min_cycles);
        min_energy_pj = min_path (fun pc -> energy code.(pc)) cfg;
        pressure;
      }
      :: !streams
  in
  Array.iteri
    (fun pos (tp : Program.tile_program) ->
      let tile = tp.Program.tile_index in
      Array.iteri
        (fun core code ->
          if Array.length code > 0 then begin
            let flow =
              match flows with
              | Some f -> f.(pos).(core)
              | None -> Regflow.flow ~layout code
            in
            add ~tile ~core:(Some core) ~cycles:(core_cycles config)
              ~energy:(core_energy_pj config layout)
              ~imem_capacity:config.Config.imem_core_bytes
              ~pressure:(Some (pressure_of layout flow))
              flow.Regflow.cfg code
          end)
        tp.Program.core_code;
      let code = tp.Program.tile_code in
      if Array.length code > 0 then
        add ~tile ~core:None ~cycles:(tile_cycles config)
          ~energy:(tile_energy_pj config)
          ~imem_capacity:config.Config.imem_tile_bytes ~pressure:None
          (Cfg.build code) code)
    p.Program.tiles;
  let streams = List.rev !streams in
  {
    streams;
    cycle_lower_bound =
      List.fold_left (fun acc s -> max acc s.min_cycles) 0 streams;
    energy_lower_bound_pj =
      List.fold_left (fun acc s -> acc +. s.min_energy_pj) 0. streams;
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
