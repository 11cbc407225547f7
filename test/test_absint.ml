(* The abstract-interpretation layer: range-analysis soundness against
   the functional simulator (qcheck), guaranteed-overflow detection, and
   the static resource estimator's lower-bound / attribution contracts. *)

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
module Range = Puma_analysis.Range
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

(* ---- Soundness property ----

   For a random MLP: every value the simulator writes to a register lies
   within the statically inferred interval for that (tile, core, pc,
   register), and no additive VFU lane saturates at a pc that was not
   flagged W-SAT / E-OVERFLOW. Programs here are branch-free, so retired
   core instructions arrive in program order and a per-core counter
   recovers the pc. *)

let prop_range_sound =
  QCheck.Test.make ~name:"simulated values lie in inferred intervals"
    ~count:30
    (QCheck.make ~print:print_spec gen_spec)
    (fun spec ->
      let g = build_mlp spec in
      let r = Compile.compile ~options:gate_off tiny_config g in
      let program = r.Compile.program in
      let input_lo = Fixed.to_raw (Fixed.of_float (-1.0)) in
      let input_hi = Fixed.to_raw Fixed.one in
      let ra =
        Range.run ~input_range:(input_lo, input_hi) ~keep_states:true program
      in
      let flagged = Hashtbl.create 64 in
      List.iter
        (fun (d : Diag.t) ->
          if d.code = "W-SAT" || d.code = "E-OVERFLOW" then
            match (d.loc.tile, d.loc.core, d.loc.pc) with
            | Some t, Some c, Some pc -> Hashtbl.replace flagged (t, c, pc) ()
            | _ -> ())
        ra.Range.diags;
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
                           match ra.Range.interval ~tile ~core ~pc ~reg:i with
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
      let rng = Rng.create (spec.seed + 1) in
      let inputs =
        List.map
          (fun (n : G.node) ->
            match n.op with
            | G.Input name -> (name, Tensor.vec_rand rng n.len 0.9)
            | _ -> assert false)
          (G.inputs g)
      in
      ignore (Node.run node ~inputs);
      match List.rev !failures with
      | [] -> true
      | fs ->
          QCheck.Test.fail_reportf "%s"
            (String.concat "\n"
               (if List.length fs > 8 then
                  List.filteri (fun i _ -> i < 8) fs
                  @ [ Printf.sprintf "... and %d more" (List.length fs - 8) ]
                else fs)))

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
  let diags = Range.analyze ~input_range:exact_one r.Compile.program in
  Alcotest.(check bool) "E-OVERFLOW reported" true
    (List.exists (fun (d : Diag.t) -> d.code = "E-OVERFLOW") diags)

let test_no_false_saturation () =
  (* Row sums of 32 x 0.001 never leave the representable range. *)
  let r = Compile.compile ~options:gate_off tiny_config (one_layer 0.001) in
  let diags = Range.analyze ~input_range:exact_one r.Compile.program in
  List.iter
    (fun (d : Diag.t) ->
      if d.code = "W-SAT" || d.code = "E-OVERFLOW" then
        Alcotest.failf "unexpected %s" (Diag.to_string d))
    diags

let test_dump_ranges () =
  let r = Compile.compile ~options:gate_off tiny_config (one_layer 0.01) in
  let diags = Range.analyze ~dump_ranges:true r.Compile.program in
  Alcotest.(check bool) "I-RANGE emitted" true
    (List.exists (fun (d : Diag.t) -> d.code = "I-RANGE") diags)

(* ---- Shared-memory precision across streams ----

   Tile 0's core 0 loads word 10, which core 1 stores later in stream
   order, and word 20, which tile 0's control unit receives from tile 1.
   Both loads must see the exact stored values, not top: core 0 has to
   be solved again once the map holds them. *)

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
  let ra = Range.run ~keep_states:true program in
  let interval pc reg = ra.Range.interval ~tile:0 ~core:0 ~pc ~reg in
  Alcotest.(check (option (pair int int)))
    "load of a later core's store" (Some (100, 100)) (interval 0 (r 0));
  Alcotest.(check (option (pair int int)))
    "load of a received word" (Some (-300, -300)) (interval 1 (r 1))

(* ---- The report is each stream's last solve ----

   Range reports the W-SAT / E-OVERFLOW flags its last solve of each
   stream recorded; keeping per-pc states must not change them. The
   looping programs (the batch loop's back edge makes the solver
   iterate and widen) are pinned to digests of their reports. *)

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

let check_kept_states_agree name p =
  let sat (d : Diag.t) = d.code = "W-SAT" || d.code = "E-OVERFLOW" in
  let kept = List.filter sat (Range.run ~keep_states:true p).Range.diags in
  Alcotest.(check (list string))
    (name ^ ": analyze = flags of run ~keep_states")
    (List.map Diag.to_string kept)
    (List.map Diag.to_string (Range.analyze p))

let test_report_is_last_solve () =
  List.iter
    (fun dim ->
      List.iter
        (fun (name, g) ->
          check_kept_states_agree
            (Printf.sprintf "%s@%d" name dim)
            (zoo_program ~wrap:false ~dim g))
        zoo)
    [ 64; 128 ]

let digest diags =
  Digest.to_hex
    (Digest.string (String.concat "\n" (List.map Diag.to_string diags)))

let test_looping_report_pinned () =
  (* (model, dim, W-SAT count, digest of Range.analyze, digest of the
     --dump-ranges report), captured when the report still came from a
     separate walk over the converged states. *)
  List.iter
    (fun (name, dim, wsat, plain, dump) ->
      let p = zoo_program ~wrap:true ~dim (List.assoc name zoo) in
      let tag = Printf.sprintf "%s@%d loop" name dim in
      let diags = Range.analyze p in
      Alcotest.(check int) (tag ^ " W-SAT") wsat
        (List.length (List.filter (fun (d : Diag.t) -> d.code = "W-SAT") diags));
      Alcotest.(check string) (tag ^ " report") plain (digest diags);
      Alcotest.(check string) (tag ^ " ranges") dump
        (digest (Range.analyze ~dump_ranges:true p));
      check_kept_states_agree tag p)
    [
      ( "mlp", 64, 5, "6af6aae892305629efafd3c2c6b3774f",
        "fca49acafd8caa92e57083d200e22606" );
      ( "lstm", 64, 109, "8c6c45ec1d3cc5a2a7ec6eb800b8f9b3",
        "fd1babd468a23f22ad786991b2696657" );
      ( "rnn", 64, 16, "05962010d3f7c6bad089280dd57fd33d",
        "e4dcdb60652bd75284087d457a37ff16" );
      ( "bm", 64, 96, "dd30a738cf7ab9a808269c59ef8eb2a3",
        "93f12c3a825af001b51bc461acb8a4cf" );
      ( "rbm", 64, 128, "5c279afe113ada95aab99a0749746820",
        "4f9cb4fe66de085ef189eb86a35ccdc5" );
      ( "mlp", 128, 3, "c2cb9e0f3d0bcf1dab37c71305c2bab2",
        "fa84dfebc8304ba8d8f74d7fe5e79cd6" );
      ( "lstm", 128, 33, "1b21fa83aa2421e45865fbaade860345",
        "5365f1b900032bbcdc64857f9e5f60bb" );
      ( "rnn", 128, 6, "226b57e9dfd3565290fe0bf04471716f",
        "c1027294e12d1b18e6d244ee243613b6" );
      ( "bm", 128, 24, "c840e9d3c366a7d4cdf303529cb022b3",
        "0805e35259398e67c8dbb1f03bbe33ee" );
      ( "rbm", 128, 32, "a8f6c9f2cfcd76959e4d467a50509a5e",
        "ff73a66073a90c677b8515cc3e57da02" );
    ]

(* ---- Static lower bounds vs the simulator ---- *)

let test_static_lb_vs_sim () =
  let config = Config.sweetspot in
  List.iter
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
        (est.Resource.energy_lower_bound_pj <= dynamic_pj))
    [
      ("mlp", Models.mini_mlp, false);
      ("mlp-loop", Models.mini_mlp, true);
      ("lstm", Models.mini_lstm, false);
      ("rnn", Models.mini_rnn, false);
    ]

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
          Alcotest.test_case "guaranteed overflow" `Quick
            test_guaranteed_overflow;
          Alcotest.test_case "no false saturation" `Quick
            test_no_false_saturation;
          Alcotest.test_case "dump ranges" `Quick test_dump_ranges;
          Alcotest.test_case "cross-stream precision" `Quick
            test_cross_stream_precision;
        ] );
      ( "resource",
        [
          Alcotest.test_case "static lb vs sim" `Quick test_static_lb_vs_sim;
          Alcotest.test_case "pressure within capacity" `Quick
            test_pressure_within_capacity;
          Alcotest.test_case "lenet5 imem attribution" `Quick
            test_lenet5_imem_attribution;
        ] );
      ( "report",
        [
          Alcotest.test_case "last solve on the zoo" `Quick
            test_report_is_last_solve;
          Alcotest.test_case "looping programs pinned" `Quick
            test_looping_report_pinned;
        ] );
    ]
