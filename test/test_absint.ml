(* The value and cost gates of the symbolic run: range soundness against
   the functional simulator (qcheck), guaranteed-overflow detection,
   per-message channel precision, runs that stop short, and the static
   resource estimator's lower-bound / attribution contracts. *)

module B = Puma_graph.Builder
module G = Puma_graph.Graph
module Tensor = Puma_util.Tensor
module Rng = Puma_util.Rng
module Fixed = Puma_util.Fixed
module Config = Puma_hwmodel.Config
module Compile = Puma_compiler.Compile
module Instr = Puma_isa.Instr
module Operand = Puma_isa.Operand
module Program = Puma_isa.Program
module Diag = Puma_analysis.Diag
module Equiv = Puma_analysis.Equiv
module Resource = Puma_analysis.Resource
module Regflow = Puma_analysis.Regflow
module Analyze = Puma_analysis.Analyze
module Node = Puma_sim.Node
module Models = Puma_nn.Models
module Network = Puma_nn.Network

(* Small config: multi-core/multi-tile programs even for tiny graphs,
   exact (noise-free) crossbars so the simulator is deterministic. *)
let tiny_config =
  {
    Config.default with
    mvmu_dim = 32;
    mvmus_per_core = 2;
    cores_per_tile = 2;
    tiles_per_node = 64;
    vfu_width = 4;
  }

let gate_off = { Compile.default_options with analysis_gate = false }

(* The value-range diagnostics of one symbolic run. *)
let ranges ?input_range ?keep_ranges p =
  (Equiv.run ?input_range ?keep_ranges p).Equiv.ranges

(* ---- Random MLP generator ---- *)

type spec = { seed : int; widths : int list; acts : int list }

let gen_spec =
  QCheck.Gen.(
    let* seed = int_range 0 9999 in
    let* depth = int_range 1 3 in
    let* widths = list_repeat (depth + 1) (int_range 4 24) in
    let* acts = list_repeat depth (int_range 0 3) in
    return { seed; widths; acts })

let print_spec s =
  Printf.sprintf "{seed=%d; widths=[%s]; acts=[%s]}" s.seed
    (String.concat ";" (List.map string_of_int s.widths))
    (String.concat ";" (List.map string_of_int s.acts))

let build_mlp { seed; widths; acts } =
  let rng = Rng.create seed in
  let m = B.create "prop-mlp" in
  let v = ref (B.input m ~name:"x" ~len:(List.hd widths)) in
  List.iteri
    (fun i (w_out, act) ->
      let w_in = List.nth widths i in
      let w =
        B.const_matrix m
          ~name:(Printf.sprintf "W%d" i)
          (Tensor.mat_rand rng w_out w_in 0.4)
      in
      let h = B.mvm m w !v in
      v :=
        (match act with
        | 0 -> B.relu m h
        | 1 -> B.sigmoid m h
        | 2 -> B.tanh m h
        | _ -> h))
    (List.combine (List.tl widths) acts);
  B.output m ~name:"y" !v;
  B.finish m

(* ---- Soundness ----

   Every value the simulator writes to a register lies within the
   interval the run inferred for that (tile, core, pc, register), with
   inputs in [-1, 1], and no additive VFU lane saturates at a pc that was
   not flagged W-SAT / E-OVERFLOW. The programs checked are branch-free,
   so retired core instructions arrive in program order and a per-core
   counter recovers the pc. [range_failures] simulates one run per input
   set and returns what contradicts the ranges. *)

let range_failures program ~runs =
  let input_lo = Fixed.to_raw (Fixed.of_float (-1.0)) in
  let input_hi = Fixed.to_raw Fixed.one in
  let ra =
    Equiv.run ~input_range:(input_lo, input_hi) ~keep_ranges:true program
  in
  let flagged = Hashtbl.create 64 in
  List.iter
    (fun (d : Diag.t) ->
      if d.code = "W-SAT" || d.code = "E-OVERFLOW" then
        match (d.loc.tile, d.loc.core, d.loc.pc) with
        | Some t, Some c, Some pc -> Hashtbl.replace flagged (t, c, pc) ()
        | _ -> ())
    ra.Equiv.ranges;
  let layout = Operand.layout program.Program.config in
  let total = layout.Operand.total in
  let node = Node.create program in
  let shadow = Hashtbl.create 8 in
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  Node.set_probe node
    (Some
       {
         Node.null_probe with
         on_retire =
           (fun ~now:_ ~tile ~core ~cycles:_ instr ->
             if core >= 0 then begin
               let pc =
                 Option.value ~default:0 (Hashtbl.find_opt shadow (tile, core))
               in
               Hashtbl.replace shadow (tile, core) (pc + 1);
               let code = program.Program.tiles.(tile).Program.core_code.(core) in
               if pc >= Array.length code || code.(pc) <> instr then
                 fail "tile %d core %d: retire desync at pc %d" tile core pc
               else begin
                 let c = Puma_tile.Tile.core (Node.tile node tile) core in
                 let rf = Puma_arch.Core.regfile c in
                 let read i =
                   if i < total then Puma_arch.Regfile.read rf i
                   else Puma_arch.Core.sreg c (i - total)
                 in
                 let effs = Regflow.effects layout instr in
                 List.iter
                   (fun (base, width) ->
                     for i = base to base + width - 1 do
                       let v = read i in
                       match ra.Equiv.interval ~tile ~core ~pc ~reg:i with
                       | None ->
                           fail "tile %d core %d pc %d: no interval for %s" tile
                             core pc
                             (Regflow.reg_name layout i)
                       | Some (lo, hi) ->
                           if v < lo || v > hi then
                             fail
                               "tile %d core %d pc %d: %s = %d outside [%d, %d]"
                               tile core pc
                               (Regflow.reg_name layout i)
                               v lo hi
                     done)
                   effs.Regflow.defs;
                 (* Saturation completeness for additive lanes: recompute the
                    unclamped sum from the (unaliased) source registers. *)
                 match instr with
                 | Instr.Alu
                     {
                       op = (Instr.Add | Instr.Sub) as op;
                       dest;
                       src1;
                       src2;
                       vec_width;
                     }
                   when abs (dest - src1) >= vec_width
                        && abs (dest - src2) >= vec_width ->
                     for k = 0 to vec_width - 1 do
                       let a = Fixed.to_raw (Fixed.of_raw (read (src1 + k))) in
                       let b = Fixed.to_raw (Fixed.of_raw (read (src2 + k))) in
                       let s = if op = Instr.Add then a + b else a - b in
                       if
                         (s < Fixed.min_raw || s > Fixed.max_raw)
                         && not (Hashtbl.mem flagged (tile, core, pc))
                       then
                         fail
                           "tile %d core %d pc %d: lane %d saturates (%d) but \
                            was not flagged"
                           tile core pc k s
                     done
                 | _ -> ()
               end
             end);
       });
  List.iter
    (fun inputs ->
      Hashtbl.reset shadow;
      ignore (Node.run node ~inputs))
    runs;
  List.rev !failures

let random_inputs rng g =
  List.map
    (fun (n : G.node) ->
      match n.op with
      | G.Input name -> (name, Tensor.vec_rand rng n.len 0.9)
      | _ -> assert false)
    (G.inputs g)

let report_failures = function
  | [] -> true
  | fs ->
      QCheck.Test.fail_reportf "%s"
        (String.concat "\n"
           (if List.length fs > 8 then
              List.filteri (fun i _ -> i < 8) fs
              @ [ Printf.sprintf "... and %d more" (List.length fs - 8) ]
            else fs))

let prop_range_sound =
  QCheck.Test.make ~name:"simulated values lie in inferred intervals"
    ~count:30
    (QCheck.make ~print:print_spec gen_spec)
    (fun spec ->
      let g = build_mlp spec in
      let r = Compile.compile ~options:gate_off tiny_config g in
      let rng = Rng.create (spec.seed + 1) in
      report_failures
        (range_failures r.Compile.program ~runs:[ random_inputs rng g ]))

(* ---- Guaranteed overflow / no false saturation ---- *)

let one_layer weight =
  let m = B.create "unit" in
  let x = B.input m ~name:"x" ~len:32 in
  let w =
    B.const_matrix m ~name:"W" (Tensor.mat_init 32 32 (fun _ _ -> weight))
  in
  B.output m ~name:"y" (B.mvm m w x);
  B.finish m

let exact_one = (Fixed.to_raw Fixed.one, Fixed.to_raw Fixed.one)

let test_guaranteed_overflow () =
  (* Row sums of 32 x 5.0 = 160, far beyond the representable 8: with
     inputs pinned to exactly 1.0 every execution clamps. *)
  let r = Compile.compile ~options:gate_off tiny_config (one_layer 5.0) in
  let diags = ranges ~input_range:exact_one r.Compile.program in
  Alcotest.(check bool) "E-OVERFLOW reported" true
    (List.exists (fun (d : Diag.t) -> d.code = "E-OVERFLOW") diags)

let test_no_false_saturation () =
  (* Row sums of 32 x 0.001 never leave the representable range. *)
  let r = Compile.compile ~options:gate_off tiny_config (one_layer 0.001) in
  let diags = ranges ~input_range:exact_one r.Compile.program in
  List.iter
    (fun (d : Diag.t) ->
      if d.code = "W-SAT" || d.code = "E-OVERFLOW" then
        Alcotest.failf "unexpected %s" (Diag.to_string d))
    diags

let test_dump_ranges () =
  let r = Compile.compile ~options:gate_off tiny_config (one_layer 0.01) in
  let diags = ranges ~keep_ranges:true r.Compile.program in
  Alcotest.(check bool) "I-RANGE emitted" true
    (List.exists (fun (d : Diag.t) -> d.code = "I-RANGE") diags)

(* ---- Shared-memory precision across streams ----

   Tile 0's core 0 loads word 10, which core 1 stores later in stream
   order, and word 20, which tile 0's control unit receives from tile 1.
   Both loads must see the exact stored values, not top. *)

let test_cross_stream_precision () =
  let config = tiny_config in
  let layout = Operand.layout config in
  let r k = Operand.gpr layout k in
  let load dest a =
    Instr.Load { dest = r dest; addr = Instr.Imm_addr a; vec_width = 1 }
  in
  let store imm a =
    [
      Instr.Set { dest = r 0; imm };
      Instr.Store
        { src = r 0; addr = Instr.Imm_addr a; count = 1; vec_width = 1 };
    ]
  in
  let stream is = Array.of_list (is @ [ Instr.Halt ]) in
  let tile ~index cores tcu =
    {
      Program.tile_index = index;
      core_code = Array.of_list (List.map stream cores);
      tile_code = stream tcu;
      mvmu_images = [];
    }
  in
  let recv =
    Instr.Receive { mem_addr = 20; fifo_id = 0; count = 1; vec_width = 1 }
  in
  let send =
    Instr.Send { mem_addr = 5; fifo_id = 0; target = 0; vec_width = 1 }
  in
  let program =
    {
      Program.config;
      tiles =
        [|
          tile ~index:0 [ [ load 0 10; load 1 20 ]; store 100 10 ] [ recv ];
          tile ~index:1 [ store (-300) 5 ] [ send ];
        |];
      inputs = [];
      outputs = [];
      constants = [];
    }
  in
  let ra = Equiv.run ~keep_ranges:true program in
  let interval pc reg = ra.Equiv.interval ~tile:0 ~core:0 ~pc ~reg in
  Alcotest.(check (option (pair int int)))
    "load of a later core's store" (Some (100, 100)) (interval 0 (r 0));
  Alcotest.(check (option (pair int int)))
    "load of a received word" (Some (-300, -300)) (interval 1 (r 1))

(* ---- Per-message channel precision ----

   Tile 1 sends two one-word messages on one channel to tile 0's fifo 0:
   first a host input in [-1, 6], then the constant 0.5. Tile 0's core
   adds the second message to itself (exactly 1.0, no clamp) and the
   first to itself ([-2, 12], which may clamp). Joining every send on
   the channel into each receive would flag the first add too. *)

let assemble config source =
  match Puma_isa.Asm.parse_program (Operand.layout config) source with
  | Ok code -> code
  | Error e -> Alcotest.fail e

let hand_tile ~index core_code tile_code =
  { Program.tile_index = index; core_code; tile_code; mvmu_images = [] }

let binding name tile mem_addr =
  { Program.name; tile; mem_addr; length = 1; offset = 0 }

let raw f = Fixed.to_raw (Fixed.of_float f)

let test_channel_precision () =
  let config = tiny_config in
  let asm = assemble config in
  let program =
    {
      Program.config;
      tiles =
        [|
          hand_tile ~index:0
            [|
              asm
                "load r0, @10, w=1\nload r1, @11, w=1\n\
                 alu.add r2, r1, r1, w=1\nalu.add r3, r0, r0, w=1\nhalt\n";
              [||];
            |]
            (asm
               "receive fifo0 -> @10, count=1, w=1\n\
                receive fifo0 -> @11, count=1, w=1\nhalt\n");
          hand_tile ~index:1
            [|
              asm
                (Printf.sprintf "set r0, #%d\nstore @1, r0, count=1, w=1\nhalt\n"
                   (raw 0.5));
              [||];
            |]
            (asm
               "send @0 -> tile0 fifo0, w=1\nsend @1 -> tile0 fifo0, w=1\nhalt\n");
        |];
      inputs = [ binding "x" 1 0 ];
      outputs = [];
      constants = [];
    }
  in
  Puma_isa.Check.check_exn program;
  let diags = ranges ~input_range:(raw (-1.0), raw 6.0) program in
  let flagged pc =
    List.exists
      (fun (d : Diag.t) ->
        (d.code = "W-SAT" || d.code = "E-OVERFLOW")
        && d.loc = { Diag.tile = Some 0; core = Some 0; pc = Some pc })
      diags
  in
  Alcotest.(check bool) "second message + itself: no W-SAT" false (flagged 2);
  Alcotest.(check bool) "first message + itself: W-SAT" true (flagged 3)

(* ---- Runs that stop short ----

   A run stops at fuel exhaustion or at a fifo's second sender tile. Its
   checks then carry one W-RANGE-PARTIAL, and the cost bound counts the
   executed prefix, which the simulation still bounds from above. *)

let check_stopped name run program ~inputs =
  let partial =
    List.filter
      (fun (d : Diag.t) -> d.code = "W-RANGE-PARTIAL")
      run.Equiv.checks
  in
  Alcotest.(check int) (name ^ ": one W-RANGE-PARTIAL") 1 (List.length partial);
  let est = Resource.estimate ~run program in
  let node = Node.create program in
  ignore (Node.run node ~inputs);
  Alcotest.(check bool)
    (Printf.sprintf "%s: static %d <= simulated %d cycles" name
       est.Resource.cycle_lower_bound (Node.cycles node))
    true
    (est.Resource.cycle_lower_bound <= Node.cycles node);
  let dynamic_pj = Puma_hwmodel.Energy.total_pj (Node.energy node) in
  Alcotest.(check bool)
    (Printf.sprintf "%s: static %.3f <= simulated %.3f pJ" name
       est.Resource.energy_lower_bound_pj dynamic_pj)
    true
    (est.Resource.energy_lower_bound_pj <= dynamic_pj);
  List.hd partial

let test_stopped_runs () =
  let r = Compile.compile ~options:gate_off tiny_config (one_layer 0.01) in
  let p = r.Compile.program in
  let inputs = [ ("x", Array.make 32 0.5) ] in
  let d = check_stopped "fuel 3" (Equiv.run ~fuel:3 p) p ~inputs in
  Alcotest.(check bool) "names the fuel" true
    (Puma_util.Strings.contains ~sub:"fuel exhausted" d.Diag.message);
  (* Tiles 1 and 2 both send to tile 0's fifo 0. *)
  let config = tiny_config in
  let asm = assemble config in
  let sender index v =
    hand_tile ~index
      [|
        asm
          (Printf.sprintf "set r0, #%d\nstore @0, r0, count=1, w=1\nhalt\n"
             (raw v));
        [||];
      |]
      (asm "send @0 -> tile0 fifo0, w=1\nhalt\n")
  in
  let shared =
    {
      Program.config;
      tiles =
        [|
          hand_tile ~index:0
            [|
              asm
                "load r0, @10, w=1\nload r1, @11, w=1\n\
                 alu.add r2, r0, r1, w=1\nstore @20, r2, count=0, w=1\nhalt\n";
              [||];
            |]
            (asm
               "receive fifo0 -> @10, count=1, w=1\n\
                receive fifo0 -> @11, count=1, w=1\nhalt\n");
          sender 1 1.0;
          sender 2 2.0;
        |];
      inputs = [];
      outputs = [ binding "y" 0 20 ];
      constants = [];
    }
  in
  Puma_isa.Check.check_exn shared;
  let d = check_stopped "shared fifo" (Equiv.run shared) shared ~inputs:[] in
  Alcotest.(check bool) "names the fifo" true
    (Puma_util.Strings.contains ~sub:"fifo 0 is written by tiles" d.Diag.message);
  (* The analyzer says once that its run-based checks stopped there. *)
  let r = Analyze.program ~ranges:true ~order:true shared in
  match
    List.filter
      (fun (d : Diag.t) -> d.severity = Diag.Warning)
      r.Analyze.diags
  with
  | [ w ] ->
      Alcotest.(check string) "the one warning" "W-RANGE-PARTIAL" w.code;
      Alcotest.(check bool) "says what the prefix limits" true
        (Puma_util.Strings.contains
           ~sub:"channel and consumer-count checks cover only" w.message
        && Puma_util.Strings.contains ~sub:"fifo 0 is written by tiles"
             w.message)
  | ws -> Alcotest.failf "expected one warning, got %d" (List.length ws)

(* ---- Keeping per-pc ranges changes no flag ----

   [W-SAT] / [E-OVERFLOW] come from the terms each pc's executions
   create; keeping per-pc intervals (for [I-RANGE] and [interval]) must
   not change them. The looping programs (the batch loop runs each body
   once more through its back edge) are pinned to digests of their
   reports. *)

let zoo =
  [
    ("mlp", Network.build_graph Models.mini_mlp);
    ("lstm", Network.build_graph Models.mini_lstm);
    ("rnn", Network.build_graph Models.mini_rnn);
    ("bm", Models.mini_bm);
    ("rbm", Models.mini_rbm);
  ]

let zoo_program ~wrap ~dim g =
  let options =
    { gate_off with check_equiv = false; wrap_batch_loop = wrap }
  in
  (Compile.compile ~options { Config.sweetspot with mvmu_dim = dim } g)
    .Compile.program

(* The zoo's multi-tile programs pass values through shared memory and
   channels; two runs each, at both dims. *)
let test_zoo_sound () =
  List.iter
    (fun dim ->
      List.iter
        (fun (name, g) ->
          let rng = Rng.create 3 in
          Alcotest.(check (list string))
            (Printf.sprintf "%s@%d: simulated values in ranges" name dim)
            []
            (range_failures
               (zoo_program ~wrap:false ~dim g)
               ~runs:[ random_inputs rng g; random_inputs rng g ]))
        zoo)
    [ 64; 128 ]

let check_kept_ranges_agree name p =
  let sat (d : Diag.t) = d.code = "W-SAT" || d.code = "E-OVERFLOW" in
  let kept = List.filter sat (ranges ~keep_ranges:true p) in
  Alcotest.(check (list string))
    (name ^ ": flags without = with kept ranges")
    (List.map Diag.to_string kept)
    (List.map Diag.to_string (ranges p))

let test_kept_ranges_agree () =
  List.iter
    (fun dim ->
      List.iter
        (fun (name, g) ->
          check_kept_ranges_agree
            (Printf.sprintf "%s@%d" name dim)
            (zoo_program ~wrap:false ~dim g))
        zoo)
    [ 64; 128 ]

let digest diags =
  Digest.to_hex
    (Digest.string (String.concat "\n" (List.map Diag.to_string diags)))

let test_looping_report_pinned () =
  (* (model, dim, W-SAT count, digest of the range report, digest of
     the report with kept ranges). *)
  List.iter
    (fun (name, dim, wsat, plain, dump) ->
      let p = zoo_program ~wrap:true ~dim (List.assoc name zoo) in
      let tag = Printf.sprintf "%s@%d loop" name dim in
      let diags = ranges p in
      Alcotest.(check int) (tag ^ " W-SAT") wsat
        (List.length (List.filter (fun (d : Diag.t) -> d.code = "W-SAT") diags));
      Alcotest.(check string) (tag ^ " report") plain (digest diags);
      Alcotest.(check string) (tag ^ " ranges") dump
        (digest (ranges ~keep_ranges:true p));
      check_kept_ranges_agree tag p)
    [
      ( "mlp", 64, 5, "6af6aae892305629efafd3c2c6b3774f",
        "3c35f35c409bc805ff073cb080d0720d" );
      ( "lstm", 64, 72, "c1c61ea07df22d44d006f42b490832e3",
        "9ce04e4fc69bd5952d03d9e9c745e011" );
      ( "rnn", 64, 16, "05962010d3f7c6bad089280dd57fd33d",
        "2894defd752ae8ac5ef477d259f58fa4" );
      ( "bm", 64, 96, "dd30a738cf7ab9a808269c59ef8eb2a3",
        "4c37cab6680c23a326b0ecda13a5a94e" );
      ( "rbm", 64, 96, "dd30a738cf7ab9a808269c59ef8eb2a3",
        "00d5fbf70944fc00fe6f6a76faaf5223" );
      ( "mlp", 128, 3, "c2cb9e0f3d0bcf1dab37c71305c2bab2",
        "6227a9482f1abdc44c29e897a22b200c" );
      ( "lstm", 128, 32, "0b59d8601e72ed34b74432823fcdd3bd",
        "7cb1fb6f5173b47834266f77253a5f8a" );
      ( "rnn", 128, 6, "226b57e9dfd3565290fe0bf04471716f",
        "67bc1ba26bd25d221e98cb7268e516bc" );
      ( "bm", 128, 24, "c840e9d3c366a7d4cdf303529cb022b3",
        "c46b030d20aee1780b0c8b9492db7de3" );
      ( "rbm", 128, 24, "c840e9d3c366a7d4cdf303529cb022b3",
        "af3f00ac1cdbfd7a97d03f1e78f10127" );
    ]

(* ---- Static lower bounds vs the simulator ---- *)

(* The batch loop's control instructions: its prologue's [Set_sreg]s and
   its epilogue's counter update and branch. *)
let loop_control = function
  | Instr.Set_sreg _ | Instr.Alu_int _ | Instr.Brn _ | Instr.Jmp _ -> true
  | _ -> false

let test_static_lb_vs_sim () =
  let config = Config.sweetspot in
  let layout = Operand.layout config in
  let bounds =
  List.map
    (fun (name, net, wrap) ->
      let g = Network.build_graph net in
      let options = { gate_off with wrap_batch_loop = wrap } in
      let r = Compile.compile ~options config g in
      let est = Resource.estimate r.Compile.program in
      Alcotest.(check bool)
        (name ^ " positive bound") true
        (est.Resource.cycle_lower_bound > 0);
      let node = Node.create r.Compile.program in
      let rng = Rng.create 11 in
      let inputs =
        List.map
          (fun (n : G.node) ->
            match n.op with
            | G.Input nm -> (nm, Tensor.vec_rand rng n.len 0.8)
            | _ -> assert false)
          (G.inputs g)
      in
      ignore (Node.run node ~inputs);
      Alcotest.(check bool)
        (Printf.sprintf "%s: static %d <= simulated %d" name
           est.Resource.cycle_lower_bound (Node.cycles node))
        true
        (est.Resource.cycle_lower_bound <= Node.cycles node);
      (* The ledger holds only dynamic energy until [finish_energy]. *)
      let dynamic_pj = Puma_hwmodel.Energy.total_pj (Node.energy node) in
      Alcotest.(check bool)
        (Printf.sprintf "%s: static %.3f pJ <= simulated %.3f pJ" name
           est.Resource.energy_lower_bound_pj dynamic_pj)
        true
        (est.Resource.energy_lower_bound_pj <= dynamic_pj);
      (name, (est.Resource.cycle_lower_bound, r.Compile.program)))
    [
      ("mlp", Models.mini_mlp, false);
      ("mlp-loop", Models.mini_mlp, true);
      ("lstm", Models.mini_lstm, false);
      ("rnn", Models.mini_rnn, false);
    ]
  in
  (* The run executes the loop's real trip count, so the looped bound is
     the unrolled one plus at most the loop-control instructions' cycles
     and the occupancy of the unrolled stream's final instruction, which
     the unrolled bound leaves out and the loop's closing branch
     follows. *)
  let unrolled, up = List.assoc "mlp" bounds in
  let looped, lp = List.assoc "mlp-loop" bounds in
  let cycles i = (Puma_arch.Cost.of_instr config layout i).Puma_arch.Cost.cycles in
  let per_core_stream f (p : Program.t) =
    Array.fold_left
      (fun acc (tp : Program.tile_program) ->
        Array.fold_left
          (fun acc code -> if code = [||] then acc else max acc (f code))
          acc tp.Program.core_code)
      0 p.Program.tiles
  in
  let control =
    per_core_stream
      (Array.fold_left
         (fun c i -> if loop_control i then c + cycles i else c)
         0)
      lp
  in
  let tail = per_core_stream (fun code -> cycles code.(Array.length code - 1)) up in
  Alcotest.(check bool)
    (Printf.sprintf "mlp-loop bound %d within %d + %d cycles of mlp's %d"
       looped control tail unrolled)
    true
    (control > 0 && unrolled <= looped && looped <= unrolled + control + tail)

let test_pressure_within_capacity () =
  (* The compiler's register allocator must never exceed the hardware
     file sizes, and the static estimate must agree. *)
  let r = Compile.compile ~options:gate_off tiny_config (one_layer 0.01) in
  let est = Resource.estimate r.Compile.program in
  List.iter
    (fun (s : Resource.stream) ->
      match s.Resource.pressure with
      | None -> ()
      | Some p ->
          Alcotest.(check bool) "gpr" true (p.Resource.gpr_hw <= p.gpr_cap);
          Alcotest.(check bool) "xin" true (p.Resource.xin_hw <= p.xin_cap);
          Alcotest.(check bool) "xout" true (p.Resource.xout_hw <= p.xout_cap))
    est.Resource.streams

(* ---- lenet5 imem attribution ---- *)

let test_lenet5_imem_attribution () =
  let r =
    Compile.compile ~options:gate_off Config.sweetspot
      (Network.build_graph Models.lenet5)
  in
  let imem =
    List.filter
      (fun (d : Diag.t) -> d.code = "E-IMEM")
      r.Compile.analysis.Analyze.diags
  in
  Alcotest.(check bool) "E-IMEM present" true (imem <> []);
  List.iter
    (fun (d : Diag.t) ->
      Alcotest.(check bool)
        ("attributed: " ^ d.message)
        true
        (Puma_util.Strings.contains ~sub:"largest layers:" d.message))
    imem;
  (* The dominant streams must blame actual lenet5 layers by name. *)
  Alcotest.(check bool) "names a conv kernel" true
    (List.exists
       (fun (d : Diag.t) ->
         Puma_util.Strings.contains ~sub:"K1" d.message)
       imem)

let () =
  Alcotest.run "absint"
    [
      ( "soundness",
        [
          QCheck_alcotest.to_alcotest prop_range_sound;
          Alcotest.test_case "zoo values lie in inferred intervals" `Quick
            test_zoo_sound;
          Alcotest.test_case "guaranteed overflow" `Quick
            test_guaranteed_overflow;
          Alcotest.test_case "no false saturation" `Quick
            test_no_false_saturation;
          Alcotest.test_case "dump ranges" `Quick test_dump_ranges;
          Alcotest.test_case "cross-stream precision" `Quick
            test_cross_stream_precision;
          Alcotest.test_case "per-message channel precision" `Quick
            test_channel_precision;
        ] );
      ( "resource",
        [
          Alcotest.test_case "static lb vs sim" `Quick test_static_lb_vs_sim;
          Alcotest.test_case "pressure within capacity" `Quick
            test_pressure_within_capacity;
          Alcotest.test_case "lenet5 imem attribution" `Quick
            test_lenet5_imem_attribution;
          Alcotest.test_case "stopped runs bound the prefix" `Quick
            test_stopped_runs;
        ] );
      ( "report",
        [
          Alcotest.test_case "kept ranges change no flag on the zoo" `Quick
            test_kept_ranges_agree;
          Alcotest.test_case "looping programs pinned" `Quick
            test_looping_report_pinned;
        ] );
    ]
