(* Reproduction of every table and figure in the paper's evaluation
   (Section 7). Each [run_*] function regenerates one artifact and returns
   its tables; bench/main.ml prints them and writes them to the record.
   See EXPERIMENTS.md for paper-vs-measured values. *)

module Config = Puma_hwmodel.Config
module Table3 = Puma_hwmodel.Table3
module Scaling = Puma_hwmodel.Scaling
module Latency = Puma_hwmodel.Latency
module Table = Puma_util.Table
module Models = Puma_nn.Models
module Network = Puma_nn.Network
module Layer = Puma_nn.Layer
module Workload = Puma_baselines.Workload
module Platform = Puma_baselines.Platform
module Puma_model = Puma_baselines.Puma_model
module Accel = Puma_baselines.Accelerators
module Compile = Puma_compiler.Compile
module G = Puma_graph.Graph

let config = Config.sweetspot
let fi = Float.of_int

let workloads () =
  List.map
    (fun net -> (net, Workload.of_network ~dim:config.Config.mvmu_dim net))
    Models.table5

(* ------------------------------------------------------------------ *)
(* Table 1: workload characterization                                  *)
(* ------------------------------------------------------------------ *)

let run_table1 () =
  let t =
    Table.create ~title:"Table 1: Workload Characterization"
      ~headers:[ "Characteristic"; "MLP"; "LSTM"; "CNN" ]
  in
  let reps =
    [
      ("MLP", Models.mini_mlp);
      ("LSTM", Models.mini_lstm);
      ("CNN", Models.lenet5);
    ]
  in
  let graphs = List.map (fun (_, n) -> G.stats (Network.build_graph n)) reps in
  let yes_no b = if b then "Yes" else "No" in
  let row name f = Table.add_row t (name :: List.map (fun s -> yes_no (f s)) graphs) in
  row "Dominance of MVM" (fun s -> s.G.mvm_macs > 4 * s.G.vector_elems);
  row "High data parallelism" (fun s -> s.G.max_vector_len >= 14);
  row "Nonlinear operations" (fun s -> s.G.num_nonlinear > 0);
  (* Linear vector ops beyond the MVM adder tree / bias adds: gates. *)
  Table.add_row t [ "Linear operations"; "No"; "Yes"; "No" ];
  row "Transcendental operations" (fun s -> s.G.num_transcendental > 0);
  (* Weight reuse: more MVM applications than distinct weight matrices. *)
  let reuse =
    List.map
      (fun (_, n) ->
        let g = Network.build_graph n in
        let s = G.stats g in
        s.G.num_mvms > Array.length (G.matrices g))
      reps
  in
  Table.add_row t ("Weight data reuse" :: List.map yes_no reuse);
  Table.add_row t [ "Input data reuse"; "No"; "No"; "Yes" ];
  Table.add_row t [ "Bounded resource"; "Memory"; "Memory"; "Compute" ];
  Table.add_row t [ "Sequential access pattern"; "Yes"; "Yes"; "No" ];
  [ t ]

(* ------------------------------------------------------------------ *)
(* Figure 4: static instruction usage                                  *)
(* ------------------------------------------------------------------ *)

let compile_fig4_workload (label, graph, is_cnn) =
  let options = { Compile.default_options with wrap_batch_loop = is_cnn } in
  let result = Compile.compile ~options config graph in
  (label, Compile.usage result)

let run_figure4 () =
  let t =
    Table.create ~title:"Figure 4: Static instruction usage (% of static count)"
      ~headers:
        [ "Workload"; "Inter-Tile"; "Inter-Core"; "Control"; "SFU"; "VFU"; "MVM" ]
  in
  List.iter
    (fun w ->
      let label, usage = compile_fig4_workload w in
      let pct u = Table.fmt_pct (Puma_isa.Usage.fraction usage u) in
      Table.add_row t
        [
          label;
          pct Puma_isa.Instr.U_inter_tile;
          pct U_inter_core;
          pct U_control;
          pct U_sfu;
          pct U_vfu;
          pct U_mvm;
        ])
    Models.figure4_workloads;
  [ t ]

(* ------------------------------------------------------------------ *)
(* Table 3: hardware characteristics                                   *)
(* ------------------------------------------------------------------ *)

let run_table3 () =
  let t =
    Table.create ~title:"Table 3: PUMA Hardware Characteristics (1 GHz, 32nm)"
      ~headers:[ "Component"; "Power (mW)"; "Area (mm2)"; "Parameter"; "Spec" ]
  in
  List.iter
    (fun (c : Table3.component) ->
      Table.add_row t
        [
          c.name;
          Table.fmt_float c.power_mw;
          Printf.sprintf "%.4f" c.area_mm2;
          c.parameter;
          c.specification;
        ])
    (Table3.all Config.default);
  [ t ]

(* ------------------------------------------------------------------ *)
(* Figure 11 (a)-(d): energy, latency, batch energy/throughput         *)
(* ------------------------------------------------------------------ *)

let run_figure11_batch1 () =
  let energy =
    Table.create
      ~title:
        "Figure 11(a): Inference energy normalized to PUMA (batch 1, higher = \
         platform uses more)"
      ~headers:
        [ "Workload"; "Haswell"; "Skylake"; "Kepler"; "Maxwell"; "Pascal" ]
  in
  let latency =
    Table.create
      ~title:"Figure 11(b): Inference latency normalized to PUMA (batch 1)"
      ~headers:
        [ "Workload"; "Haswell"; "Skylake"; "Kepler"; "Maxwell"; "Pascal" ]
  in
  List.iter
    (fun ((net : Network.t), w) ->
      let p = Puma_model.estimate config w ~batch:1 in
      let es, ls =
        List.split
          (List.map
             (fun spec ->
               let e = Platform.estimate spec w ~batch:1 in
               ( Table.fmt_ratio (e.Platform.energy_j /. p.Puma_model.energy_j),
                 Table.fmt_ratio (e.Platform.latency_s /. p.Puma_model.latency_s)
               ))
             Platform.all)
      in
      Table.add_row energy (net.Network.name :: es);
      Table.add_row latency (net.Network.name :: ls))
    (workloads ());
  [ energy; latency ]

let batches = [ 16; 32; 64; 128 ]

let run_figure11_batch () =
  let savings =
    Table.create
      ~title:"Figure 11(c): Batch energy savings vs Haswell (PUMA advantage)"
      ~headers:("Workload" :: List.map (fun b -> Printf.sprintf "B%d" b) batches)
  in
  let throughput =
    Table.create
      ~title:"Figure 11(d): Batch throughput normalized to Haswell"
      ~headers:("Workload" :: List.map (fun b -> Printf.sprintf "B%d" b) batches)
  in
  List.iter
    (fun ((net : Network.t), w) ->
      let s_row, t_row =
        List.split
          (List.map
             (fun b ->
               let p = Puma_model.estimate config w ~batch:b in
               let h = Platform.estimate Platform.haswell w ~batch:b in
               ( Table.fmt_ratio (h.Platform.energy_j /. p.Puma_model.energy_j),
                 Table.fmt_ratio
                   (p.Puma_model.throughput_inf_s /. h.Platform.throughput_inf_s)
               ))
             batches)
      in
      Table.add_row savings (net.Network.name :: s_row);
      Table.add_row throughput (net.Network.name :: t_row))
    (workloads ());
  [ savings; throughput ]

(* ------------------------------------------------------------------ *)
(* Batch-throughput sweep on the sharded runtime                       *)
(* ------------------------------------------------------------------ *)

(* The paper's batch sweep (Figure 11(c)/(d), Table 8) measured on the
   functional simulator instead of the analytical model: puma_runtime
   simulates a batch of independent requests once, and the serving
   engine schedules its responses on 1, 2 and 4 simulated nodes as a
   burst whose arrivals all land at cycle 0. Throughput is simulated
   inferences/s over the batch makespan; p50/p95 are per-request service
   cycles, the same on every fleet. *)
let batch_nodes = [ 1; 2; 4 ]

let run_batch_throughput () =
  let module Batch = Puma_runtime.Batch in
  let module Engine = Puma_serve.Engine in
  let t =
    Table.create
      ~title:
        "Batch throughput: MLP-L (mini) sharded across simulated nodes \
         (inf/s, simulated)"
      ~headers:
        ("Batch"
        :: List.map (fun d -> Printf.sprintf "%d node%s" d (if d = 1 then "" else "s"))
             batch_nodes
        @ [ "Speedup @4"; "p50/p95 cycles" ])
  in
  let program =
    (Compile.compile config (Network.build_graph Models.mini_mlp))
      .Compile.program
  in
  let model = Engine.model ~name:"mlp" program in
  List.iter
    (fun batch ->
      let responses, _ =
        Batch.run program (Batch.random_requests program ~batch ~seed:7)
      in
      let throughputs =
        List.map
          (fun nodes ->
            (Engine.burst ~nodes model responses).Engine.models.(0)
              .Engine.throughput_rps)
          batch_nodes
      in
      let cycles =
        Array.map (fun (r : Batch.response) -> Float.of_int r.cycles) responses
      in
      Table.add_row t
        (Printf.sprintf "B%d" batch
         :: List.map (Printf.sprintf "%.0f") throughputs
        @ [
            Printf.sprintf "%.2fx"
              (List.nth throughputs (List.length throughputs - 1)
              /. List.hd throughputs);
            Printf.sprintf "%.0f/%.0f"
              (Puma_util.Stats.percentile cycles 50.0)
              (Puma_util.Stats.percentile cycles 95.0);
          ]))
    batches;
  [ t ]

(* ------------------------------------------------------------------ *)
(* Table 6: comparison with ML accelerators                            *)
(* ------------------------------------------------------------------ *)

let run_table6 () =
  let t =
    Table.create ~title:"Table 6: Comparison with ML Accelerators"
      ~headers:[ "Metric"; "PUMA"; "TPU"; "ISAAC" ]
  in
  let puma = Accel.puma_accel Config.default in
  let accels = [ puma; Accel.tpu; Accel.isaac ] in
  let row name f = Table.add_row t (name :: List.map f accels) in
  row "Year" (fun a -> string_of_int a.Accel.year);
  row "Technology" (fun a -> a.Accel.technology);
  row "Clock (MHz)" (fun a -> Printf.sprintf "%.0f" a.Accel.clock_mhz);
  row "Area (mm2)" (fun a -> Printf.sprintf "%.1f" a.Accel.area_mm2);
  row "Power (W)" (fun a -> Printf.sprintf "%.1f" a.Accel.power_w);
  row "Peak Throughput (TOPS/s)" (fun a -> Printf.sprintf "%.2f" a.Accel.peak_tops);
  let eff name f =
    row name (fun a -> match f a with Some v -> Printf.sprintf "%.3f" v | None -> "-")
  in
  eff "Peak AE (TOPS/s/mm2)" (fun a -> Accel.area_efficiency a None);
  eff "Peak PE (TOPS/s/W)" (fun a -> Accel.power_efficiency a None);
  Table.add_sep t;
  List.iter
    (fun (label, kind) ->
      eff ("Best AE - " ^ label) (fun a -> Accel.area_efficiency a (Some kind));
      eff ("Best PE - " ^ label) (fun a -> Accel.power_efficiency a (Some kind)))
    [ ("MLP", Network.Mlp); ("LSTM", Network.Deep_lstm); ("CNN", Network.Cnn) ];
  [ t ]

(* ------------------------------------------------------------------ *)
(* Table 7: programmability comparison                                 *)
(* ------------------------------------------------------------------ *)

let run_table7 () =
  let t =
    Table.create ~title:"Table 7: Programmability Comparison with ISAAC"
      ~headers:[ "Aspect"; "PUMA"; "ISAAC" ]
  in
  Table.set_aligns t [ Table.Left; Table.Left; Table.Left ];
  List.iter
    (fun (aspect, puma, isaac) -> Table.add_row t [ aspect; puma; isaac ])
    Accel.programmability_rows;
  [ t ]

(* ------------------------------------------------------------------ *)
(* Table 8: evaluation of optimizations                                *)
(* ------------------------------------------------------------------ *)

(* Input shuffling: sliding-window convolutions rewrite only the new
   window columns into XbarIn and rotate (Section 3.2.3), saving a
   (1 - stride/kw) fraction of the per-window gather traffic (shared
   memory reads, bus transfers and register writes). *)
let input_shuffling_ratio (net : Network.t) w =
  let e cat = Puma_hwmodel.Energy.per_event_pj config cat in
  let per_word = e Smem +. e Bus +. (2.0 *. e Rf) in
  let dim = config.Config.mvmu_dim in
  let saved = ref 0.0 in
  let rec scan shape layers (infos : Workload.layer_info list) =
    match (layers, infos) with
    | [], _ | _, [] -> ()
    | l :: ls, info :: is ->
        (match (l : Layer.t) with
        | Conv { kw; stride; _ } when kw > stride ->
            let gather_words =
              fi (info.Workload.steps * info.waves * info.col_blocks * dim)
            in
            saved :=
              !saved
              +. (gather_words *. per_word *. (1.0 -. (fi stride /. fi kw)))
        | Conv _ | Dense _ | Lstm _ | Rnn _ | Maxpool _ | Flatten -> ());
        scan (Layer.out_shape shape l) ls is
  in
  scan net.Network.input net.Network.layers w.Workload.layers;
  let dyn = Puma_model.estimate config w ~batch:1 in
  if !saved = 0.0 then None
  else Some ((dyn.Puma_model.energy_j -. (!saved /. 1.0e12)) /. dyn.Puma_model.energy_j)

(* Shared-memory sizing: without inter-layer pipelining the tile memory
   must buffer a whole inference's worth of activations (Section 4.1.2):
   the full sequence between recurrent layers, or whole feature maps
   (instead of a kernel-height band) between convolution layers. eDRAM
   access energy grows with the square root of capacity, so small shared
   memories save energy on every access. *)
let smem_sizing (net : Network.t) _w =
  let factor =
    match net.Network.kind with
    | Network.Mlp | Network.Boltzmann -> 1.0
    | Network.Deep_lstm | Network.Wide_lstm | Network.Rnn_net ->
        fi net.Network.seq_len
    | Network.Cnn ->
        (* Mean over conv layers of full-map vs band buffering. *)
        let ratios = ref [] in
        let rec scan shape = function
          | [] -> ()
          | l :: ls ->
              (match ((l : Layer.t), shape) with
              | Conv { kh; _ }, Layer.Img { h; _ } ->
                  ratios := (fi h /. fi kh) :: !ratios
              | _, _ -> ());
              scan (Layer.out_shape shape l) ls
        in
        scan net.Network.input net.Network.layers;
        if !ratios = [] then 1.0
        else
          List.fold_left ( +. ) 0.0 !ratios /. fi (List.length !ratios)
  in
  (* Shared-memory accesses are ~10% of dynamic energy. *)
  let smem_share = 0.10 in
  let ratio = 1.0 /. ((1.0 -. smem_share) +. (smem_share *. sqrt factor)) in
  (factor, ratio)

let mini_workloads =
  [
    ("MLP*", Models.mini_mlp, false);
    ("LSTM*", Models.mini_lstm, false);
    ("RNN*", Models.mini_rnn, false);
    ("Lenet5*", Models.lenet5, true);
  ]

(* Mini models are compiled for a 64x64-crossbar configuration so their
   matrices span several MVMUs/cores (otherwise the Figure 4 networks fit
   in one or two crossbars and the placement/coalescing levers have
   nothing to act on). *)
let mini_config = { config with Config.mvmu_dim = 64 }

let input_len (program : Puma_isa.Program.t) =
  List.fold_left
    (fun acc (b : Puma_isa.Program.io_binding) -> max acc (b.offset + b.length))
    0 program.inputs

let simulate (r : Compile.result) =
  let node = Puma_sim.Node.create r.Compile.program in
  let rng = Puma_util.Rng.create 5 in
  let x = Puma_util.Tensor.vec_rand rng (input_len r.Compile.program) 0.8 in
  ignore (Puma_sim.Node.run node ~inputs:[ ("x", x) ]);
  node

(* Graph partitioning: simulated data-movement energy (shared memory, bus,
   NoC, FIFOs) of the locality placement relative to a random one. *)
let movement_energy node =
  let e = Puma_sim.Node.energy node in
  let cat c = Puma_hwmodel.Energy.energy_pj e c in
  cat Smem +. cat Bus +. cat Noc +. cat Fifo +. cat Attr

let partitioning_row (net : Network.t) is_cnn =
  let g = Network.build_graph net in
  let options = { Compile.default_options with wrap_batch_loop = is_cnn } in
  let loc = Compile.compile ~options mini_config g in
  let el = movement_energy (simulate loc) in
  (* Average the random baseline over several placements. *)
  let seeds = [ 3; 11; 23 ] in
  let er =
    List.fold_left
      (fun acc seed ->
        let rnd =
          Compile.compile
            ~options:{ options with partition_strategy = Random seed }
            mini_config g
        in
        acc +. movement_energy (simulate rnd))
      0.0 seeds
    /. fi (List.length seeds)
  in
  (el /. Float.max 1.0 er, loc)

(* MVM coalescing: simulated latency with coalescing on vs off. *)
let coalescing_row (net : Network.t) is_cnn =
  let g = Network.build_graph net in
  let run coalesce =
    let options =
      { Compile.default_options with wrap_batch_loop = is_cnn; coalesce_mvms = coalesce }
    in
    let r = Compile.compile ~options mini_config g in
    Puma_sim.Node.cycles (simulate r)
  in
  fi (run true) /. fi (run false)

let run_table8 () =
  let t =
    Table.create ~title:"Table 8: Evaluation of Optimizations"
      ~headers:
        [
          "Workload";
          "Input shuffling (energy x)";
          "Smem sizing (energy x / size x)";
          "Graph partitioning (energy x)";
          "Register pressure (% spilled)";
          "MVM coalescing (latency x)";
        ]
  in
  (* Full-size rows: analytical columns. *)
  List.iter
    (fun ((net : Network.t), w) ->
      let shuffle =
        match input_shuffling_ratio net w with
        | Some r -> Printf.sprintf "%.2fx" r
        | None -> "-"
      in
      let factor, ratio = smem_sizing net w in
      Table.add_row t
        [
          net.Network.name;
          shuffle;
          Printf.sprintf "%.2fx / %.1fx" ratio factor;
          "";
          "";
          "";
        ])
    (workloads ());
  Table.add_sep t;
  (* Mini rows: compiled/simulated columns. *)
  List.iter
    (fun (label, net, is_cnn) ->
      let part_ratio, result = partitioning_row net is_cnn in
      let spills = result.Compile.codegen_stats.spilled_fraction in
      let coal = coalescing_row net is_cnn in
      Table.add_row t
        [
          label;
          "";
          "";
          Printf.sprintf "%.2fx" part_ratio;
          Table.fmt_pct spills;
          Printf.sprintf "%.2fx" coal;
        ])
    mini_workloads;
  [ t ]

(* ------------------------------------------------------------------ *)
(* Figure 12: design space exploration                                 *)
(* ------------------------------------------------------------------ *)

(* Tile efficiency on the paper's synthetic benchmark: a steady-state
   pipeline of one MVM per MVMU followed by a VFU operation and a
   ROM-Embedded RAM look-up on every output element. Throughput is set by
   the slower of the pipelined crossbar wave and the temporal-SIMD vector
   work per wave; a too-narrow VFU becomes the bottleneck, a too-wide one
   wastes area (the Figure 12 tension, sweetspot at 4 lanes). *)
let vfu_ops_per_output = 8

let tile_efficiency (c : Config.t) =
  let dim = c.mvmu_dim in
  let per_core_outputs = c.mvmus_per_core * dim in
  let mvm_ops = fi (c.cores_per_tile * c.mvmus_per_core * 2 * dim * dim) in
  let vec_elems = c.cores_per_tile * per_core_outputs * vfu_ops_per_output in
  let vfu_cycles =
    fi (per_core_outputs * vfu_ops_per_output) /. fi c.vfu_width
  in
  let cycles = Float.max (fi (Latency.mvm_initiation c)) vfu_cycles in
  let ops_per_sec =
    (mvm_ops +. fi vec_elems) /. cycles *. c.frequency_ghz *. 1.0e9
  in
  let gops = ops_per_sec /. 1.0e9 in
  ( gops /. Table3.tile_area_mm2 c,
    gops /. (Table3.tile_power_mw c /. 1000.0) )

let sweep title f values =
  let t =
    Table.create
      ~title
      ~headers:[ "Value"; "GOPS/s/mm2"; "GOPS/s/W" ]
  in
  List.iter
    (fun v ->
      let ae, pe = tile_efficiency (f v) in
      Table.add_row t
        [ v; Printf.sprintf "%.0f" ae; Printf.sprintf "%.0f" pe ])
    values;
  t

let run_figure12 () =
  let base = Config.sweetspot in
  let dims =
    sweep "Figure 12: sweep MVMU dimension"
      (fun v -> { base with mvmu_dim = int_of_string v })
      [ "64"; "128"; "256" ]
  in
  let mvmus =
    sweep "Figure 12: sweep # MVMUs per core"
      (fun v -> { base with mvmus_per_core = int_of_string v })
      [ "1"; "2"; "4"; "16"; "64" ]
  in
  let vfu =
    sweep "Figure 12: sweep VFU width"
      (fun v -> { base with vfu_width = int_of_string v })
      [ "1"; "4"; "16"; "64" ]
  in
  let cores =
    sweep "Figure 12: sweep # cores per tile"
      (fun v -> { base with cores_per_tile = int_of_string v })
      [ "1"; "4"; "8"; "16" ]
  in
  let rf =
    sweep "Figure 12: sweep register file size (x provisioning rule)"
      (fun v -> { base with rf_multiplier = float_of_string v })
      [ "0.5"; "1"; "4"; "16" ]
  in
  (* Register spilling companion plot: spilled accesses vs RF size. *)
  let spill =
    Table.create ~title:"Figure 12: register spilling vs RF size (mini LSTM)"
      ~headers:[ "RF multiplier"; "% accesses from spilled registers" ]
  in
  List.iter
    (fun mult ->
      let cfg = { mini_config with Config.rf_multiplier = mult } in
      let g = Network.build_graph Models.mini_lstm in
      let r = Compile.compile cfg g in
      Table.add_row spill
        [
          Printf.sprintf "%.2f" mult;
          Table.fmt_pct r.Compile.codegen_stats.spilled_fraction;
        ])
    [ 0.5; 1.0; 4.0; 16.0 ];
  [ dims; mvmus; vfu; cores; rf; spill ]

(* ------------------------------------------------------------------ *)
(* Figure 13: inference accuracy vs precision and write noise          *)
(* ------------------------------------------------------------------ *)

let run_figure13 ?(samples = 20) () =
  let sigmas = [ 0.0; 0.1; 0.2; 0.3 ] in
  let t =
    Table.create
      ~title:"Figure 13: Inference accuracy vs memristor precision and noise"
      ~headers:
        ("Bits/cell"
        :: List.map (fun s -> Printf.sprintf "sigma=%.1f" s) sigmas)
  in
  List.iter
    (fun bits ->
      let row =
        List.map
          (fun sigma ->
            let acc =
              Puma.Accuracy.synthetic_classification
                ~bits_per_cell:bits ~sigma ~samples ~seed:17 ()
            in
            Table.fmt_pct acc)
          sigmas
      in
      Table.add_row t (string_of_int bits :: row))
    [ 1; 2; 3; 4; 5; 6 ];
  [ t ]

(* ------------------------------------------------------------------ *)
(* Static cost estimator vs simulator                                   *)
(* ------------------------------------------------------------------ *)

let run_static_vs_sim () =
  (* Cross-validation of the abstract-interpretation cost estimator: the
     static cycle bound must never exceed the simulated makespan, and the
     gap it leaves is exactly what the profiler books as stall + idle
     time on the critical stream. The compiler's critical path (CP), the
     longest latency chain through the lowered graph, is a second bound
     that must hold as well. *)
  let t =
    Table.create
      ~title:"Static cost estimator vs simulator (cycles per inference)"
      ~headers:
        [
          "Workload"; "Static LB"; "CP"; "Simulated"; "LB/sim"; "CP/sim";
          "Busy"; "Static nJ"; "Simulated nJ";
        ]
  in
  List.iter
    (fun (label, net, is_cnn) ->
      let options =
        (* Gate off: lenet5 has a known core-imem overflow (E-IMEM) but
           still simulates. *)
        { Compile.default_options with wrap_batch_loop = is_cnn;
          analysis_gate = false }
      in
      let r = Compile.compile ~options mini_config (Network.build_graph net) in
      let est = Puma_analysis.Resource.estimate r.Compile.program in
      let node = Puma_sim.Node.create r.Compile.program in
      let profile = Puma_profile.Profile.create () in
      Puma_profile.Profile.attach profile node;
      let rng = Puma_util.Rng.create 5 in
      let x =
        Puma_util.Tensor.vec_rand rng (input_len r.Compile.program) 0.8
      in
      ignore (Puma_sim.Node.run node ~inputs:[ ("x", x) ]);
      let sim = Puma_sim.Node.cycles node in
      let lb = est.Puma_analysis.Resource.cycle_lower_bound in
      (* A structurally invalid program (lenet5's E-IMEM) skips the
         semantic analyses; its estimate bounds nothing, so the row says
         so instead of printing a number and the check does not apply. *)
      let skipped =
        List.exists
          (fun (d : Puma_analysis.Diag.t) -> d.code = "I-SKIP")
          r.Compile.analysis.Puma_analysis.Analyze.diags
      in
      if (not skipped) && lb > sim then
        failwith
          (Printf.sprintf "%s: static bound %d exceeds simulated %d" label lb
             sim);
      (* The critical path needs no analysis, so it bounds every row. *)
      let cp = r.Compile.critical_path_cycles in
      if cp > sim then
        failwith
          (Printf.sprintf "%s: critical path %d exceeds simulated %d" label cp
             sim);
      let static_cell f = if skipped then "n/a (I-SKIP)" else f () in
      let tot = Puma_profile.Profile.totals profile in
      let entity_cycles =
        tot.Puma_profile.Profile.busy_cycles
        + tot.Puma_profile.Profile.stalled_cycles
        + tot.Puma_profile.Profile.idle_cycles
      in
      let sim_nj =
        Puma_hwmodel.Energy.total_pj (Puma_sim.Node.energy node) /. 1e3
      in
      Table.add_row t
        [
          label;
          static_cell (fun () -> string_of_int lb);
          string_of_int cp;
          string_of_int sim;
          static_cell (fun () ->
              Printf.sprintf "%.2f" (fi lb /. Float.max 1.0 (fi sim)));
          Printf.sprintf "%.2f" (fi cp /. Float.max 1.0 (fi sim));
          (if entity_cycles = 0 then "-"
           else
             Table.fmt_pct
               (fi tot.Puma_profile.Profile.busy_cycles /. fi entity_cycles));
          static_cell (fun () ->
              Printf.sprintf "%.1f"
                (est.Puma_analysis.Resource.energy_lower_bound_pj /. 1e3));
          Printf.sprintf "%.1f" sim_nj;
        ])
    mini_workloads;
  [ t ]

(* ------------------------------------------------------------------ *)
(* Section 7.4.3: digital MVMU comparison                              *)
(* ------------------------------------------------------------------ *)

let run_digital_mvmu () =
  let d = Accel.digital_mvmu Config.default in
  let t =
    Table.create
      ~title:"Section 7.4.3: Digital vs memristive MVMU (equal throughput)"
      ~headers:[ "Quantity"; "Digital / memristive" ]
  in
  Table.add_row t [ "MVMU area"; Printf.sprintf "%.2fx" d.Accel.mvmu_area_ratio ];
  Table.add_row t [ "MVMU energy"; Printf.sprintf "%.2fx" d.Accel.mvmu_energy_ratio ];
  Table.add_row t [ "Chip area (same performance)"; Printf.sprintf "%.2fx" d.Accel.chip_area_ratio ];
  Table.add_row t
    [ "Chip energy (incl. data movement)"; Printf.sprintf "%.2fx" d.Accel.chip_energy_ratio ];
  [ t ]

(* ------------------------------------------------------------------ *)
(* Ablations of design choices (DESIGN.md)                              *)
(* ------------------------------------------------------------------ *)

let run_ablation_fifo () =
  (* Receive-FIFO depth: Table 3 provisions depth 2; this sweep shows the
     backpressure cost of depth 1 and the diminishing returns beyond 2 on
     a two-tile producer-consumer pipeline. *)
  let t =
    Table.create ~title:"Ablation: receive-FIFO depth (simulated cycles)"
      ~headers:[ "FIFO depth"; "Cycles"; "vs depth 2" ]
  in
  let build () =
    let rng = Puma_util.Rng.create 8 in
    let m = Puma_graph.Builder.create "fifo-ablation" in
    let x = Puma_graph.Builder.input m ~name:"x" ~len:128 in
    let w1 =
      Puma_graph.Builder.const_matrix m ~name:"W1"
        (Puma_util.Tensor.mat_rand rng 128 128 0.08)
    in
    let w2 =
      Puma_graph.Builder.const_matrix m ~name:"W2"
        (Puma_util.Tensor.mat_rand rng 96 128 0.08)
    in
    Puma_graph.Builder.output m ~name:"y"
      (Puma_graph.Builder.mvm m w2
         (Puma_graph.Builder.sigmoid m (Puma_graph.Builder.mvm m w1 x)));
    Puma_graph.Builder.finish m
  in
  let g = build () in
  let cycles depth =
    let cfg =
      { mini_config with Config.mvmus_per_core = 2; cores_per_tile = 2;
        fifo_depth = depth }
    in
    let r = Compile.compile cfg g in
    Puma_sim.Node.cycles (simulate r)
  in
  let base = cycles 2 in
  List.iter
    (fun depth ->
      let c = cycles depth in
      Table.add_row t
        [
          string_of_int depth;
          string_of_int c;
          Printf.sprintf "%.2fx" (fi c /. fi base);
        ])
    [ 1; 2; 4; 8 ];
  [ t ]

let run_ablation_pipeline () =
  (* Spatial inter-layer pipelining (Section 4.1.2): single-inference
     latency with and without overlapping layers across time-steps and
     windows. *)
  let t =
    Table.create
      ~title:"Ablation: spatial pipelining (single-inference latency)"
      ~headers:[ "Workload"; "Pipelined (ms)"; "Sequential (ms)"; "Speedup" ]
  in
  List.iter
    (fun ((net : Network.t), w) ->
      let est = Puma_model.estimate config w ~batch:1 in
      let seq = Puma_model.latency_no_pipelining config w in
      Table.add_row t
        [
          net.Network.name;
          Printf.sprintf "%.3f" (est.Puma_model.latency_s *. 1e3);
          Printf.sprintf "%.3f" (seq *. 1e3);
          Table.fmt_ratio (seq /. est.Puma_model.latency_s);
        ])
    (workloads ());
  [ t ]

let run_profile_occupancy () =
  (* Where the cycles go: per-workload core occupancy from the cycle-level
     profiler — busy (split by unit), stalled (split by reason), idle. *)
  let t =
    Table.create ~title:"Profile: core occupancy by workload"
      ~headers:
        [ "Workload"; "Cycles"; "Busy"; "Stalled"; "Idle"; "Top stall" ]
  in
  List.iter
    (fun (label, net, is_cnn) ->
      let options =
        (* Gate off: lenet5 has a known core-imem overflow (E-IMEM) but
           still simulates — the profile is the point here. *)
        { Compile.default_options with wrap_batch_loop = is_cnn;
          analysis_gate = false }
      in
      let r = Compile.compile ~options mini_config (Network.build_graph net) in
      let node = Puma_sim.Node.create r.Compile.program in
      let profile = Puma_profile.Profile.create () in
      Puma_profile.Profile.attach profile node;
      let rng = Puma_util.Rng.create 5 in
      let x =
        Puma_util.Tensor.vec_rand rng (input_len r.Compile.program) 0.8
      in
      ignore (Puma_sim.Node.run node ~inputs:[ ("x", x) ]);
      let tot = Puma_profile.Profile.totals profile in
      let entity_cycles =
        tot.Puma_profile.Profile.busy_cycles
        + tot.Puma_profile.Profile.stalled_cycles
        + tot.Puma_profile.Profile.idle_cycles
      in
      let pct n =
        if entity_cycles = 0 then "-"
        else Table.fmt_pct (fi n /. fi entity_cycles)
      in
      let top_stall =
        match
          List.sort
            (fun (_, a) (_, b) -> compare b a)
            tot.Puma_profile.Profile.by_stall
        with
        | (reason, n) :: _ when n > 0 ->
            Printf.sprintf "%s (%s)"
              (Puma_arch.Core.stall_name reason)
              (pct n)
        | _ -> "-"
      in
      Table.add_row t
        [
          label;
          string_of_int tot.Puma_profile.Profile.cycles;
          pct tot.Puma_profile.Profile.busy_cycles;
          pct tot.Puma_profile.Profile.stalled_cycles;
          pct tot.Puma_profile.Profile.idle_cycles;
          top_stall;
        ])
    mini_workloads;
  [ t ]

(* ------------------------------------------------------------------ *)
(* Fault tolerance: Monte-Carlo stuck-cell / dead-line campaigns on the
   mini MLP, with and without the fault-aware remapping pass. The paired
   columns show the remap pass recovering accuracy: at moderate rates the
   argmax flip rate collapses because dead lines are retired onto the
   spare (zero-padding) rows/columns of partially-filled blocks. *)

let run_fault_tolerance () =
  let module Campaign = Puma_fault.Campaign in
  let r = Compile.compile mini_config (Network.build_graph Models.mini_mlp) in
  let program = r.Compile.program in
  let spec =
    {
      Campaign.default_spec with
      rates = [ 1e-3; 2e-3; 5e-3 ];
      fault_seeds = [ 1; 2; 3 ];
      samples = 16;
    }
  in
  let plain = Campaign.run ~key:"mini-mlp" program spec in
  let healed =
    Campaign.run ~key:"mini-mlp" program { spec with remap = true }
  in
  let t =
    Table.create
      ~title:
        "Fault tolerance: mini MLP, 16 inferences x 3 seeds per rate \
         (no remap vs remap)"
      ~headers:
        [
          "fault rate"; "faults"; "flip rate"; "mean ulps"; "max ulps";
          "flip (remap)"; "mean ulps (remap)"; "max ulps (remap)"; "E"; "W";
        ]
  in
  let mean f pts =
    List.fold_left (fun acc p -> acc +. f p) 0.0 pts
    /. fi (List.length pts)
  in
  List.iter2
    (fun (rate, plain_pts) (_, healed_pts) ->
      let sum g pts = List.fold_left (fun acc p -> acc + g p) 0 pts in
      Table.add_row t
        [
          Table.fmt_sci rate;
          Printf.sprintf "%.0f"
            (mean (fun (p : Campaign.point) -> fi p.total_faults) plain_pts);
          Table.fmt_pct (mean (fun (p : Campaign.point) -> p.flip_rate) plain_pts);
          Table.fmt_float
            (mean (fun (p : Campaign.point) -> p.mean_err_ulps) plain_pts);
          Printf.sprintf "%.0f"
            (mean (fun (p : Campaign.point) -> fi p.max_err_ulps) plain_pts);
          Table.fmt_pct
            (mean (fun (p : Campaign.point) -> p.flip_rate) healed_pts);
          Table.fmt_float
            (mean (fun (p : Campaign.point) -> p.mean_err_ulps) healed_pts);
          Printf.sprintf "%.0f"
            (mean (fun (p : Campaign.point) -> fi p.max_err_ulps) healed_pts);
          string_of_int
            (sum (fun (p : Campaign.point) -> p.fault_errors) healed_pts);
          string_of_int
            (sum (fun (p : Campaign.point) -> p.fault_warnings) healed_pts);
        ])
    (Campaign.by_rate plain) (Campaign.by_rate healed);
  [ t ]

(* ------------------------------------------------------------------ *)
(* Simulator throughput: host speed of the node loop                  *)
(* ------------------------------------------------------------------ *)

(* Host-side simulation speed (simulated cycles per wall second and
   inferences per wall second) of every zoo model in the node loop. The
   cycles per inference are pinned; the rates are host-clock columns.
   test_fastpath's "zoo @ dim 64" pins the loop against its reference
   mode on the same six models. PUMA_BENCH_QUICK=1 runs a reduced sweep
   (fewer models, fewer repetitions). *)

let bench_quick () = Sys.getenv_opt "PUMA_BENCH_QUICK" <> None

let run_sim_throughput () =
  let module Node = Puma_sim.Node in
  let quick = bench_quick () in
  let zoo =
    [
      ("mlp", Network.build_graph Models.mini_mlp);
      ("lstm", Network.build_graph Models.mini_lstm);
      ("rnn", Network.build_graph Models.mini_rnn);
      ("lenet5", Network.build_graph Models.lenet5);
      ("bm", Models.mini_bm);
      ("rbm", Models.mini_rbm);
    ]
  in
  let zoo = if quick then [ List.nth zoo 0; List.nth zoo 2 ] else zoo in
  let runs = if quick then 3 else 10 in
  let repeats = if quick then 2 else 3 in
  let t =
    Table.create
      ~title:
        (Printf.sprintf
           "Simulator throughput at dim %d (%d-run sweeps, best of %d)"
           mini_config.Config.mvmu_dim runs repeats)
      ~headers:[ "model"; "cycles/inf"; "Mcyc/s"; "inf/s" ]
  in
  Table.set_host_columns t [ "Mcyc/s"; "inf/s" ];
  List.iter
    (fun (name, g) ->
      (* Gate off so lenet5 (known core-imem overflow diagnostic) still
         simulates, as in the profile/analyze commands. *)
      let options = { Compile.default_options with analysis_gate = false } in
      let program = (Compile.compile ~options mini_config g).Compile.program in
      let rng = Puma_util.Rng.create 11 in
      let inputs =
        List.map
          (fun (n, len) -> (n, Puma_util.Tensor.vec_rand rng len 0.8))
          (Puma_runtime.Batch.input_lengths program)
      in
      let node = Node.create program in
      (* A warm-up run, then one steady-state run measures the cycles per
         inference. *)
      ignore (Node.run node ~inputs);
      assert (Node.last_run_fast node);
      let c0 = Node.cycles node in
      ignore (Node.run node ~inputs);
      let per_run = Node.cycles node - c0 in
      let (), s =
        Microprof.best ~repeats (fun () ->
            for _ = 1 to runs do
              ignore (Node.run node ~inputs)
            done)
      in
      Table.add_row t
        [
          name;
          string_of_int per_run;
          Printf.sprintf "%.2f"
            (Microprof.rate ~events:(fi (per_run * runs)) s /. 1e6);
          Printf.sprintf "%.1f" (Microprof.rate ~events:(fi runs) s);
        ])
    zoo;
  [ t ]

(* ------------------------------------------------------------------ *)
(* Serving tail latency vs offered load                                *)
(* ------------------------------------------------------------------ *)

(* The serving runtime's signature curve: sweep a Poisson open stream
   from light load past the fleet's capacity and record the latency
   percentiles at each point. Below the knee, p99 tracks the service
   time; past it the queues grow without bound over the run and tail
   latency climbs with the backlog — asserted in-bench (the run is
   deterministic, so the assertion is stable). PUMA_BENCH_QUICK=1 runs a
   reduced sweep. *)
let run_serve_latency () =
  let module Engine = Puma_serve.Engine in
  let quick = bench_quick () in
  let r = Compile.compile mini_config (Network.build_graph Models.mini_mlp) in
  let fleet = [| Engine.model ~name:"mlp" r.Compile.program |] in
  let nodes = 4 in
  let serve_config = { Engine.nodes; max_batch = 4; input_seed = 7 } in
  let hz = mini_config.Config.frequency_ghz *. 1.0e9 in
  (* Capacity from the mean service time of a probe batch served with no
     queueing (arrivals spaced far beyond the service time). *)
  let mean_service_cycles =
    let probe =
      Array.init 4 (fun i -> { Engine.cycle = i * 50_000_000; model = 0 })
    in
    let report = Engine.run serve_config fleet probe in
    fi
      (Array.fold_left
         (fun acc (s : Engine.served) -> acc + s.Engine.cycles)
         0 report.Engine.served)
    /. fi (Array.length report.Engine.served)
  in
  let capacity_rps = fi nodes *. hz /. mean_service_cycles in
  let loads =
    if quick then [ 0.5; 1.3; 1.8 ]
    else [ 0.2; 0.4; 0.6; 0.8; 1.0; 1.2; 1.5; 2.0 ]
  in
  let target_arrivals = if quick then 40 else 120 in
  let t =
    Table.create
      ~title:
        (Printf.sprintf
           "Serving tail latency vs offered load (mini MLP at dim %d, %d \
            nodes, batch %d, %.1f service cycles, capacity %.0f inf/s)"
           mini_config.Config.mvmu_dim nodes serve_config.Engine.max_batch
           mean_service_cycles capacity_rps)
      ~headers:
        [
          "load"; "rate (inf/s)"; "arrivals"; "p50 ms"; "p99 ms"; "p99.9 ms";
          "util"; "queue avg"; "makespan cycles";
        ]
  in
  let points =
    List.map
      (fun load ->
        let rate = load *. capacity_rps in
        let duration_s = fi target_arrivals /. rate in
        let workload =
          Engine.synthesize ~models:1
            (Puma_serve.Arrival.Poisson { rate_rps = rate })
            ~seed:13 ~duration_s
            ~frequency_ghz:mini_config.Config.frequency_ghz
        in
        let report = Engine.run serve_config fleet workload in
        let m = report.Engine.models.(0) in
        Table.add_row t
          [
            Printf.sprintf "%.1f" load;
            Printf.sprintf "%.0f" rate;
            string_of_int report.Engine.arrivals;
            Printf.sprintf "%.4f" m.Engine.p50_ms;
            Printf.sprintf "%.4f" m.Engine.p99_ms;
            Printf.sprintf "%.4f" m.Engine.p999_ms;
            Table.fmt_pct report.Engine.utilization;
            Printf.sprintf "%.1f" m.Engine.mean_queue_depth;
            string_of_int report.Engine.makespan_cycles;
          ];
        (load, m))
      loads
  in
  (* The knee: past saturation, every further load step must push p99
     strictly higher (queues only deepen); and any saturated point must
     be worse than every sub-knee point. *)
  let saturated =
    List.filter_map
      (fun (load, (m : Engine.model_stats)) ->
        if load >= 1.05 then Some (load, m.Engine.p99_ms) else None)
      points
  in
  let rec check_increasing = function
    | (l1, p1) :: ((l2, p2) :: _ as rest) ->
        if p2 <= p1 then
          failwith
            (Printf.sprintf
               "p99 not increasing past the knee: %.4f ms at load %.1f vs \
                %.4f ms at load %.1f"
               p1 l1 p2 l2);
        check_increasing rest
    | _ -> ()
  in
  check_increasing saturated;
  List.iter
    (fun (load, (m : Engine.model_stats)) ->
      if load <= 0.8 then
        List.iter
          (fun (_, sat_p99) ->
            if sat_p99 <= m.Engine.p99_ms then
              failwith
                (Printf.sprintf
                   "saturated p99 %.4f ms not above sub-knee p99 %.4f ms \
                    (load %.1f)"
                   sat_p99 m.Engine.p99_ms load))
          saturated)
    points;
  [ t ]

(* ------------------------------------------------------------------ *)
(* Multi-node scale-out                                                *)
(* ------------------------------------------------------------------ *)

(* Throughput / latency / energy vs node count for both cross-node
   partitioning schemes, on the functional cluster simulator, next to the
   static Resource lower bounds of the same compiled programs. Asserts
   in-bench that every configuration's outputs equal the single-node
   run's bit for bit (placement never changes the fixed-point dataflow)
   and that link words appear exactly when the program spans nodes. One
   extra table runs the multi-node fault campaign at the largest node
   count. PUMA_BENCH_QUICK=1 runs a reduced sweep. *)
let run_scaleout () =
  let module Cluster = Puma_cluster.Cluster in
  let module Partition = Puma_compiler.Partition in
  let module Resource = Puma_analysis.Resource in
  let quick = bench_quick () in
  let node_counts = if quick then [ 1; 2 ] else [ 1; 2; 4; 8 ] in
  let schemes = [ Partition.Pipelined; Partition.Sharded ] in
  let g = Network.build_graph Models.mini_lstm in
  let rng = Puma_util.Rng.create 11 in
  let baseline_r = Compile.compile mini_config g in
  let inputs =
    List.map
      (fun (n, len) -> (n, Puma_util.Tensor.vec_rand rng len 0.8))
      (Puma_runtime.Batch.input_lengths baseline_r.Compile.program)
  in
  let hz = mini_config.Config.frequency_ghz *. 1.0e9 in
  (* One warmed cluster per configuration; the measured inference is the
     second one, so every row sees identical steady state. *)
  let measure program ~nodes =
    let cluster = Cluster.create ~nodes program in
    ignore (Cluster.run cluster ~inputs);
    let c0 = Cluster.cycles cluster in
    let e0 = Cluster.dynamic_energy_pj cluster in
    let w0 = Cluster.offchip_words cluster in
    let outputs = Cluster.run cluster ~inputs in
    ( outputs,
      Cluster.cycles cluster - c0,
      Cluster.dynamic_energy_pj cluster -. e0,
      Cluster.offchip_words cluster - w0 )
  in
  let baseline_outputs, _, _, _ =
    measure baseline_r.Compile.program ~nodes:1
  in
  let t =
    Table.create
      ~title:
        (Printf.sprintf "Scale-out: mini-lstm across PUMA nodes (mesh, %dx%d)"
           mini_config.Config.mvmu_dim mini_config.Config.mvmu_dim)
      ~headers:
        [
          "scheme"; "nodes"; "cycles/inf"; "latency us"; "inf/s";
          "dyn pJ/inf"; "link words"; "LB cycles"; "sim/LB"; "LB pJ";
        ]
  in
  List.iter
    (fun scheme ->
      List.iter
        (fun nodes ->
          let r =
            if nodes = 1 then baseline_r
            else
              let options =
                {
                  Compile.default_options with
                  cluster = Some { Partition.nodes; scheme };
                }
              in
              Compile.compile ~options mini_config g
          in
          let lb = Resource.estimate r.Compile.program in
          let outputs, cycles, dyn_pj, words =
            measure r.Compile.program ~nodes:r.Compile.nodes_used
          in
          (* The bit-identity contract, asserted on real link costs:
             outputs never depend on the placement. Cycles can move in
             either direction — partitioning spreads work over more
             tiles even as the fabric adds link latency — so only the
             link-traffic invariant is checked. *)
          assert (outputs = baseline_outputs);
          assert ((nodes = 1) = (words = 0));
          let latency_s = fi cycles /. hz in
          Table.add_row t
            [
              Partition.scheme_name scheme;
              string_of_int nodes;
              string_of_int cycles;
              Printf.sprintf "%.2f" (latency_s *. 1e6);
              Printf.sprintf "%.0f" (1.0 /. latency_s);
              Printf.sprintf "%.0f" dyn_pj;
              string_of_int words;
              string_of_int lb.Resource.cycle_lower_bound;
              Printf.sprintf "%.2fx"
                (fi cycles /. fi lb.Resource.cycle_lower_bound);
              Printf.sprintf "%.0f" lb.Resource.energy_lower_bound_pj;
            ])
        node_counts)
    schemes;
  (* The reliability row: the same model under the multi-node fault
     campaign at the sweep's largest node count — per-chip blast radius
     next to the cluster-wide flip rate. *)
  let fault_nodes = List.fold_left max 1 node_counts in
  let fault_report =
    let options =
      {
        Compile.default_options with
        cluster = Some { Partition.nodes = fault_nodes; scheme = Pipelined };
      }
    in
    let r = Compile.compile ~options mini_config g in
    Puma_fault.Campaign.run ~nodes:r.Compile.nodes_used
      ~key:"mini-lstm" r.Compile.program
      {
        Puma_fault.Campaign.default_spec with
        rates = [ 1e-3 ];
        fault_seeds = [ 1 ];
        samples = (if quick then 4 else 8);
      }
  in
  [ t; Puma_fault.Campaign.table fault_report ]

(* ------------------------------------------------------------------ *)

let all_experiments =
  [
    ("table1", run_table1);
    ("figure4", run_figure4);
    ("table3", run_table3);
    ("figure11ab", run_figure11_batch1);
    ("figure11cd", run_figure11_batch);
    ("batch_throughput", run_batch_throughput);
    ("table6", run_table6);
    ("table7", run_table7);
    ("table8", run_table8);
    ("figure12", run_figure12);
    ("figure13", fun () -> run_figure13 ());
    ("digital_mvmu", run_digital_mvmu);
    ("ablation_fifo", run_ablation_fifo);
    ("ablation_pipeline", run_ablation_pipeline);
    ("profile_occupancy", run_profile_occupancy);
    ("static_vs_sim", run_static_vs_sim);
    ("fault_tolerance", run_fault_tolerance);
    ("sim_throughput", run_sim_throughput);
    ("serve_latency", run_serve_latency);
    ("scaleout", run_scaleout);
  ]
