(* puma_cli: command-line front end.

   dune exec bin/puma_cli.exe -- models
   dune exec bin/puma_cli.exe -- compile mlp --asm
   dune exec bin/puma_cli.exe -- analyze --all --json
   dune exec bin/puma_cli.exe -- run lstm
   dune exec bin/puma_cli.exe -- batch --model mlp --batch-size 16 --domains 4
   dune exec bin/puma_cli.exe -- estimate BigLSTM --batch 16
   dune exec bin/puma_cli.exe -- table3
   dune exec bin/puma_cli.exe -- accuracy --bits 2 --sigma 0.1 *)

open Cmdliner
module Config = Puma_hwmodel.Config
module Models = Puma_nn.Models
module Network = Puma_nn.Network
module Compile = Puma_compiler.Compile

(* ---- Model registries ---- *)

let mini_models =
  [
    ("mlp", `Net Models.mini_mlp);
    ("lstm", `Net Models.mini_lstm);
    ("rnn", `Net Models.mini_rnn);
    ("lenet5", `Net Models.lenet5);
    ("bm", `Graph Models.mini_bm);
    ("rbm", `Graph Models.mini_rbm);
  ]

let full_models =
  List.map (fun (n : Network.t) -> (n.Network.name, n)) Models.table5

let graph_of = function
  | `Net n -> Network.build_graph n
  | `Graph g -> g

let find_full name =
  let canon = String.lowercase_ascii name in
  match
    List.find_opt (fun (n, _) -> String.lowercase_ascii n = canon) full_models
  with
  | Some (_, n) -> Ok n
  | None ->
      Error
        (Printf.sprintf "unknown benchmark model %S (try: %s)" name
           (String.concat ", " (List.map fst full_models)))

let find_mini name =
  (* A path to a .model description file works anywhere a zoo name does. *)
  if Sys.file_exists name && not (Sys.is_directory name) then
    match Puma_nn.Model_desc.parse_file name with
    | Ok net -> Ok (`Net net)
    | Error e -> Error (Printf.sprintf "%s: %s" name e)
  else
    match List.assoc_opt (String.lowercase_ascii name) mini_models with
    | Some m -> Ok m
    | None -> (
        (* The Table 5 benchmark models compile and run too — at full
           size they just need a multi-node cluster (and usually
           --seq-len 1) to be tractable. *)
        match find_full name with
        | Ok n -> Ok (`Net n)
        | Error _ ->
            Error
              (Printf.sprintf
                 "unknown model %S (try a description file or: %s; full-size: \
                  %s)"
                 name
                 (String.concat ", " (List.map fst mini_models))
                 (String.concat ", " (List.map fst full_models))))

(* ---- Common arguments ---- *)

let dim_arg =
  let doc = "Crossbar dimension (power of two)." in
  Arg.(value & opt int 128 & info [ "dim" ] ~doc)

let config_of_dim dim = { Config.sweetspot with mvmu_dim = dim }

let exit_err msg =
  prerr_endline ("error: " ^ msg);
  exit 1

(* Every compile goes through here: a compile-time [Failure] (Codegen's
   E-SMEM, E-FIFO and E-COUNT budgets, the analysis gate's report) is an
   error exit, not an uncaught exception. *)
let compile ?options config g =
  try Puma_compiler.Compile.compile ?options config g
  with Failure msg -> exit_err msg

(* ---- Cluster arguments (run / batch / serve / faults) ---- *)

module Partition = Puma_compiler.Partition
module Fabric = Puma_noc.Fabric
module Cluster = Puma_cluster.Cluster

let nodes_arg =
  Arg.(
    value & opt int 1
    & info [ "nodes" ] ~docv:"N"
        ~doc:
          "Split the model across this many PUMA nodes (chips), partitioned \
           by --scheme and connected by the --topology fabric; 1 keeps a \
           single node.")

let topology_arg =
  Arg.(
    value & opt string "mesh"
    & info [ "topology" ] ~docv:"TOPO"
        ~doc:
          "Chip-to-chip fabric topology: $(b,mesh), $(b,ring) or \
           $(b,all-to-all).")

let scheme_arg =
  Arg.(
    value & opt string "pipelined"
    & info [ "scheme" ] ~docv:"SCHEME"
        ~doc:
          "Cross-node partitioning scheme: $(b,pipelined) (contiguous layer \
           blocks per node) or $(b,sharded) (matrix row blocks round-robined \
           across nodes).")

let seq_len_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "seq-len" ] ~docv:"N"
        ~doc:
          "Override a recurrent model's sequence length (full-size models \
           default to their paper configuration; 1 keeps them tractable in \
           functional simulation).")

let parse_topology s =
  match Fabric.topology_of_string s with
  | Some t -> t
  | None ->
      exit_err
        (Printf.sprintf "unknown topology %S (try mesh, ring, all-to-all)" s)

let parse_scheme s =
  match Partition.scheme_of_string s with
  | Some sc -> sc
  | None ->
      exit_err (Printf.sprintf "unknown scheme %S (try pipelined, sharded)" s)

(* The compile option that splits a model across [nodes] chips; [None]
   keeps one node. *)
let cluster_of ~nodes scheme =
  if nodes < 1 then exit_err "--nodes must be positive";
  if nodes = 1 then None
  else Some { Partition.nodes; scheme = parse_scheme scheme }

let apply_seq_len m = function
  | None -> m
  | Some l -> (
      match m with
      | `Net n -> `Net (Network.with_seq_len n l)
      | `Graph _ -> exit_err "--seq-len applies to layered networks only")

(* ---- models ---- *)

let models_cmd =
  let run () =
    print_endline "Simulation-scale models (compile/run):";
    List.iter
      (fun (name, m) ->
        match m with
        | `Net (n : Network.t) ->
            Format.printf "  %-8s %a@." name Network.pp_summary n
        | `Graph g ->
            let s = Puma_graph.Graph.stats g in
            Format.printf "  %-8s %s: %d MVM ops, %d params@." name
              (Puma_graph.Graph.name g) s.Puma_graph.Graph.num_mvms
              s.Puma_graph.Graph.weight_params)
      mini_models;
    print_endline "Benchmark models (estimate, Table 5):";
    List.iter
      (fun (_, n) -> Format.printf "  %a@." Network.pp_summary n)
      full_models
  in
  Cmd.v (Cmd.info "models" ~doc:"List the model zoo")
    Term.(const run $ const ())

(* ---- compile ---- *)

let compile_cmd =
  let model =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"MODEL")
  in
  let asm =
    Arg.(value & flag & info [ "asm" ] ~doc:"Dump the per-core assembly.")
  in
  let output =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~doc:"Write the compiled program to a file.")
  in
  let no_equiv =
    Arg.(
      value & flag
      & info [ "no-equiv" ]
          ~doc:
            "Skip the translation validator (the symbolic proof that the \
             compiled program computes the source dataflow).")
  in
  let run model asm output no_equiv nodes scheme dim =
    match find_mini model with
    | Error e -> exit_err e
    | Ok m ->
        let config = config_of_dim dim in
        let cluster = cluster_of ~nodes scheme in
        let options =
          { Compile.default_options with check_equiv = not no_equiv; cluster }
        in
        let r = compile ~options config (graph_of m) in
        Puma_isa.Check.check_exn r.Compile.program;
        Option.iter
          (fun (c : Partition.cluster) ->
            Printf.printf "partitioned %s across %d nodes (%d tiles/node)\n"
              (Partition.scheme_name c.scheme) r.Compile.nodes_used
              r.Compile.tiles_per_node)
          cluster;
        Printf.printf
          "%d instructions across %d tiles / %d cores; %d MVMU slots; %d MVM \
           instructions (%d MVM operations before coalescing)\n"
          r.codegen_stats.total_instructions r.tiles_used r.cores_used
          r.mvmus_used r.num_mvm_instructions r.num_mvm_nodes;
        Printf.printf
          "loads %d, stores %d, sends %d, receives %d; %.1f%% accesses from \
           spilled registers; peak shared-memory use %d words\n"
          r.codegen_stats.num_loads r.codegen_stats.num_stores
          r.codegen_stats.num_sends r.codegen_stats.num_receives
          (100.0 *. r.codegen_stats.spilled_fraction)
          r.codegen_stats.smem_high_water;
        (match r.Compile.equiv with
        | Some e ->
            Printf.printf
              "translation validation: proved %d output words equal to the \
               source dataflow (%d MVM applications, %d instructions \
               executed)\n"
              e.Puma_analysis.Equiv.output_words
              e.Puma_analysis.Equiv.mvm_apps e.Puma_analysis.Equiv.steps
        | None -> ());
        Format.printf "%a@." Puma_isa.Usage.pp (Compile.usage r);
        (match output with
        | Some path ->
            Puma_isa.Program_io.save path r.Compile.program;
            Printf.printf "wrote %s\n" path
        | None -> ());
        if asm then begin
          let layout = Puma_isa.Operand.layout config in
          Array.iter
            (fun (tp : Puma_isa.Program.tile_program) ->
              Array.iteri
                (fun c code ->
                  if Array.length code > 0 then
                    Printf.printf "--- tile %d core %d ---\n%s"
                      tp.Puma_isa.Program.tile_index c
                      (Puma_isa.Asm.program_to_string layout code))
                tp.Puma_isa.Program.core_code;
              if Array.length tp.Puma_isa.Program.tile_code > 0 then
                Printf.printf "--- tile %d control unit ---\n%s"
                  tp.Puma_isa.Program.tile_index
                  (Puma_isa.Asm.program_to_string layout
                     tp.Puma_isa.Program.tile_code))
            r.Compile.program.tiles
        end
  in
  Cmd.v
    (Cmd.info "compile" ~doc:"Compile a model and report compiler statistics")
    Term.(
      const run $ model $ asm $ output $ no_equiv $ nodes_arg $ scheme_arg
      $ dim_arg)

(* ---- run ---- *)

let run_cmd =
  let model =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"MODEL")
  in
  let seed =
    Arg.(value & opt int 7 & info [ "seed" ] ~doc:"Input RNG seed.")
  in
  let no_analysis =
    Arg.(
      value & flag
      & info [ "no-analysis" ]
          ~doc:
            "Skip the whole-program static-analysis gate and the \
             translation validator (for full-size models, whose analysis \
             costs more than their simulation).")
  in
  let run model seed nodes topology scheme seq_len no_analysis dim =
    match find_mini model with
    | Error e -> exit_err e
    | Ok m ->
        let cluster = cluster_of ~nodes scheme in
        let m = apply_seq_len m seq_len in
        let g = graph_of m in
        let config = config_of_dim dim in
        let rng = Puma_util.Rng.create seed in
        let inputs =
          List.map
            (fun (n : Puma_graph.Graph.node) ->
              match n.op with
              | Puma_graph.Graph.Input name ->
                  (name, Puma_util.Tensor.vec_rand rng n.len 0.8)
              | _ -> assert false)
            (Puma_graph.Graph.inputs g)
        in
        let want = Puma.reference g inputs in
        let report_outputs got =
          List.iter
            (fun (name, w) ->
              let h = List.assoc name got in
              Printf.printf "output %s: max |error| vs float reference %.5f\n"
                name
                (Puma_util.Tensor.vec_max_abs_diff w h))
            want
        in
        let options =
          {
            Compile.default_options with
            static_analysis = not no_analysis;
            check_equiv = not no_analysis;
          }
        in
        match cluster with
        | None ->
            let session = Puma.Session.create ~config ~options g in
            let got = Puma.Session.infer session inputs in
            report_outputs got;
            Format.printf "%a@." Puma_sim.Metrics.pp
              (Puma.Session.metrics session)
        | Some { Partition.scheme; _ } ->
            let topology = parse_topology topology in
            let options = { options with cluster } in
            let r = compile ~options config g in
            let program = r.Compile.program in
            Printf.printf
              "partitioned %s across %d nodes (%s fabric, %d tiles/node)\n"
              (Partition.scheme_name scheme)
              r.Compile.nodes_used
              (Fabric.topology_name topology)
              r.Compile.tiles_per_node;
            if not no_analysis then
              List.iter
                (fun (sr : Cluster.shard_report) ->
                  Printf.printf
                    "node %d gates: %d errors, %d warnings (%d out / %d in \
                     cross-node channels)\n"
                    sr.Cluster.node sr.Cluster.report.errors
                    sr.Cluster.report.warnings sr.Cluster.cross_out
                    sr.Cluster.cross_in)
                (Cluster.analyze_shards ~nodes:r.Compile.nodes_used program);
            let cluster =
              Cluster.create ~nodes:r.Compile.nodes_used ~topology program
            in
            let got = Cluster.run cluster ~inputs in
            report_outputs got;
            let node = Cluster.node cluster in
            Puma_sim.Node.finish_energy node;
            Printf.printf
              "cluster: %d cycles; %.3f uJ total (%.3f uJ dynamic); %d words \
               over chip-to-chip links\n"
              (Cluster.cycles cluster)
              (Puma_hwmodel.Energy.total_pj (Puma_sim.Node.energy node) /. 1.0e6)
              (Cluster.dynamic_energy_pj cluster /. 1.0e6)
              (Cluster.offchip_words cluster)
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:
         "Simulate one inference and validate it (optionally across a \
          multi-node cluster)")
    Term.(
      const run $ model $ seed $ nodes_arg $ topology_arg $ scheme_arg
      $ seq_len_arg $ no_analysis $ dim_arg)

(* ---- graph ---- *)

let graph_cmd =
  let model =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"MODEL")
  in
  let dot = Arg.(value & flag & info [ "dot" ] ~doc:"Emit GraphViz DOT.") in
  let run model dot =
    match find_mini model with
    | Error e -> exit_err e
    | Ok m ->
        let g = graph_of m in
        if dot then print_string (Puma_graph.Graph.to_dot g)
        else begin
          let s = Puma_graph.Graph.stats g in
          Printf.printf
            "%s: %d nodes, %d MVM ops (%d MACs), %d vector ops, %d nonlinear              (%d transcendental), %d weight parameters, widest vector %d
"
            (Puma_graph.Graph.name g)
            (Puma_graph.Graph.num_nodes g)
            s.Puma_graph.Graph.num_mvms s.Puma_graph.Graph.mvm_macs
            s.Puma_graph.Graph.num_vector_ops s.Puma_graph.Graph.num_nonlinear
            s.Puma_graph.Graph.num_transcendental
            s.Puma_graph.Graph.weight_params s.Puma_graph.Graph.max_vector_len
        end
  in
  Cmd.v
    (Cmd.info "graph" ~doc:"Inspect a model's computational graph")
    Term.(const run $ model $ dot)

(* ---- exec ---- *)

let exec_cmd =
  let file = Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE") in
  let seed = Arg.(value & opt int 7 & info [ "seed" ] ~doc:"Input RNG seed.") in
  let run file seed =
    match Puma_isa.Program_io.load file with
    | Error e -> exit_err e
    | Ok program ->
        Puma_isa.Check.check_exn program;
        let session = Puma.Session.of_program program in
        let rng = Puma_util.Rng.create seed in
        (* Feed every input binding with random data of the right size. *)
        let by_name = Hashtbl.create 4 in
        List.iter
          (fun (b : Puma_isa.Program.io_binding) ->
            let len =
              max
                (Option.value ~default:0 (Hashtbl.find_opt by_name b.name))
                (b.offset + b.length)
            in
            Hashtbl.replace by_name b.name len)
          program.inputs;
        let inputs =
          Hashtbl.fold
            (fun name len acc ->
              (name, Puma_util.Tensor.vec_rand rng len 0.8) :: acc)
            by_name []
        in
        let outputs = Puma.Session.infer session inputs in
        List.iter
          (fun (name, v) ->
            let preview =
              Array.to_list (Array.sub v 0 (min 8 (Array.length v)))
              |> List.map (Printf.sprintf "%.4f")
              |> String.concat " "
            in
            Printf.printf "output %s (%d values): %s%s\n" name (Array.length v)
              preview
              (if Array.length v > 8 then " ..." else ""))
          outputs;
        Format.printf "%a@." Puma_sim.Metrics.pp (Puma.Session.metrics session)
  in
  Cmd.v
    (Cmd.info "exec" ~doc:"Load a compiled program file and simulate it")
    Term.(const run $ file $ seed)

(* ---- analyze ---- *)

(* Diagnostics-budget gate (--budget FILE). The baseline file maps each
   program name to the error codes it is allowed to report and the number
   of warnings it is allowed at most; anything beyond that — a new error,
   or a warning-count regression — fails the gate. Programs absent from
   the baseline get the strict default: no errors, no warnings. *)
let check_budget path reports =
  let module Json = Puma_util.Json in
  let budget =
    match
      let ic = open_in_bin path in
      let n = in_channel_length ic in
      let s = really_input_string ic n in
      close_in ic;
      Json.parse s
    with
    | Ok j -> j
    | Error e -> exit_err (Printf.sprintf "%s: %s" path e)
    | exception Sys_error e -> exit_err e
  in
  let violations = ref [] in
  let violation fmt =
    Printf.ksprintf (fun s -> violations := s :: !violations) fmt
  in
  List.iter
    (fun (name, (r : Puma_analysis.Analyze.report)) ->
      let entry =
        Option.bind (Json.member "models" budget) (Json.member name)
      in
      let allowed_errors =
        match Option.bind entry (Json.member "allow_errors") with
        | Some j ->
            Option.value ~default:[] (Json.to_list j)
            |> List.filter_map Json.to_str
        | None -> []
      in
      let max_warnings =
        match Option.bind entry (Json.member "max_warnings") with
        | Some j -> Option.value ~default:0 (Json.to_int j)
        | None -> 0
      in
      List.iter
        (fun (d : Puma_analysis.Diag.t) ->
          if
            d.severity = Puma_analysis.Diag.Error
            && not (List.mem d.code allowed_errors)
          then violation "%s: unbudgeted %s" name (Puma_analysis.Diag.to_string d))
        r.diags;
      if r.warnings > max_warnings then
        violation "%s: %d warnings exceed the budgeted %d" name r.warnings
          max_warnings)
    reports;
  match List.rev !violations with
  | [] ->
      Printf.eprintf "diagnostics budget %s: pass (%d program%s)\n%!" path
        (List.length reports)
        (if List.length reports = 1 then "" else "s");
      true
  | vs ->
      List.iter (fun v -> Printf.eprintf "budget violation: %s\n" v) vs;
      Printf.eprintf "diagnostics budget %s: FAIL (%d violation%s)\n%!" path
        (List.length vs)
        (if List.length vs = 1 then "" else "s");
      false

let analyze_cmd =
  let targets =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"TARGET"
          ~doc:
            "Zoo model name, .model description file, or compiled program \
             file (as written by compile -o).")
  in
  let all =
    Arg.(
      value & flag
      & info [ "all" ] ~doc:"Analyze every simulation-scale zoo model.")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Emit one JSON document instead of text.")
  in
  let ranges =
    Arg.(
      value & flag
      & info [ "ranges" ]
          ~doc:
            "Run the abstract-interpretation range analysis: report \
             possible (W-SAT) and guaranteed (E-OVERFLOW) fixed-point \
             saturation.")
  in
  let resources =
    Arg.(
      value & flag
      & info [ "resources" ]
          ~doc:
            "Report static per-core resource use: register-pressure \
             high-water marks, instruction-memory budgets, and lower-bound \
             cycle/energy estimates.")
  in
  let dump_ranges =
    Arg.(
      value & flag
      & info [ "dump-ranges" ]
          ~doc:
            "With the range analysis, also emit I-RANGE infos listing the \
             inferred interval of every defined register (implies \
             $(b,--ranges)).")
  in
  let input_range =
    Arg.(
      value
      & opt (some (pair ~sep:',' float float)) None
      & info [ "input-range" ] ~docv:"LO,HI"
          ~doc:
            "Assume every program input lies in [LO, HI] (floats; default \
             the full fixed-point range). Implies $(b,--ranges).")
  in
  let order =
    Arg.(
      value & flag
      & info [ "order" ]
          ~doc:
            "Run the happens-before concurrency analysis: report shared-\
             memory races (E-RACE) and receive FIFOs whose in-flight \
             packets can exceed the FIFO depth or whose senders are \
             unordered (E-FIFO-ORDER).")
  in
  let dump_hb =
    Arg.(
      value & flag
      & info [ "dump-hb" ]
          ~doc:
            "With the happens-before analysis, also dump the cross-stream \
             ordering edges as I-ORDER infos (implies $(b,--order)).")
  in
  let no_repair =
    Arg.(
      value & flag
      & info [ "no-repair" ]
          ~doc:
            "Compile zoo models without the channel repair pass, so \
             E-FIFO-ORDER hazards in the raw generated code stay visible.")
  in
  let equiv =
    Arg.(
      value & flag
      & info [ "equiv" ]
          ~doc:
            "Run the translation validator: symbolically execute the \
             program and prove every output word equals the source \
             dataflow (E-EQUIV on refutation). Model targets validate \
             against their own compilation; program files need \
             $(b,--reference).")
  in
  let reference =
    Arg.(
      value
      & opt (some string) None
      & info [ "reference" ] ~docv:"MODEL"
          ~doc:
            "With $(b,--equiv), the model whose dataflow program-file \
             targets are validated against (compiled at the same \
             $(b,--dim)).")
  in
  let budget =
    Arg.(
      value
      & opt (some string) None
      & info [ "budget" ] ~docv:"FILE"
          ~doc:
            "Gate against a diagnostics-budget baseline: fail if any \
             program reports an error code not allowlisted for it in FILE, \
             or more warnings than FILE budgets for it.")
  in
  let run targets all json ranges resources dump_ranges input_range order
      dump_hb no_repair equiv reference budget dim =
    let config = config_of_dim dim in
    let targets = if all then List.map fst mini_models else targets in
    if targets = [] then
      exit_err "nothing to analyze (name a model or program file, or use --all)";
    let ranges = ranges || dump_ranges || input_range <> None in
    let order = order || dump_hb in
    let input_range =
      Option.map
        (fun (lo, hi) ->
          ( Puma_util.Fixed.to_raw (Puma_util.Fixed.of_float lo),
            Puma_util.Fixed.to_raw (Puma_util.Fixed.of_float hi) ))
        input_range
    in
    let analyze ?equiv ?layer_of program =
      Puma_analysis.Analyze.program ~ranges ~resources ?input_range
        ~dump_ranges ~order ~dump_hb ?equiv ?layer_of program
    in
    (* With --equiv, program-file targets are validated against the
       dataflow of --reference MODEL, compiled once at the same --dim. *)
    let reference_dataflow =
      lazy
        (match reference with
        | None ->
            exit_err
              "--equiv on a program file needs --reference MODEL (the \
               source dataflow to validate against)"
        | Some name -> (
            match find_mini name with
            | Error e -> exit_err e
            | Ok m ->
                let options =
                  {
                    Compile.default_options with
                    analysis_gate = false;
                    check_equiv = false;
                    repair_ordering = not no_repair;
                  }
                in
                (compile ~options config (graph_of m))
                  .Compile.equiv_reference))
    in
    let report_of target =
      (* A compiled program file analyzes as-is (even if broken); anything
         else resolves through the model registry and compiles first, which
         also yields instruction->layer provenance for imem attribution. *)
      let from_model m =
        (* Gate off so a failing program still yields its full report;
           equiv off too — the validator runs in [analyze] below, against
           the compilation's own reference dataflow. *)
        let options =
          {
            Compile.default_options with
            analysis_gate = false;
            check_equiv = false;
            repair_ordering = not no_repair;
          }
        in
        let r = compile ~options config (graph_of m) in
        analyze
          ?equiv:(if equiv then Some r.Compile.equiv_reference else None)
          ~layer_of:r.Compile.layer_of r.Compile.program
      in
      if Sys.file_exists target && not (Sys.is_directory target) then
        match Puma_isa.Program_io.load target with
        | Ok program ->
            analyze
              ?equiv:
                (if equiv then Some (Lazy.force reference_dataflow) else None)
              program
        | Error _ -> (
            match find_mini target with
            | Ok m -> from_model m
            | Error e -> exit_err e)
      else
        match find_mini target with
        | Ok m -> from_model m
        | Error e -> exit_err e
    in
    let reports = List.map (fun t -> (t, report_of t)) targets in
    let total_errors =
      List.fold_left
        (fun acc (_, r) -> acc + r.Puma_analysis.Analyze.errors)
        0 reports
    in
    if json then
      print_endline
        (Puma_util.Json.to_string
           (Puma_util.Json.Obj
              [
                ( "programs",
                  Puma_util.Json.List
                    (List.map
                       (fun (name, r) ->
                         Puma_analysis.Analyze.json ~name r)
                       reports) );
                ("errors", Puma_util.Json.Int total_errors);
              ]))
    else
      List.iter
        (fun (name, r) ->
          Format.printf "== %s ==@.%a" name Puma_analysis.Analyze.pp r)
        reports;
    match budget with
    | Some path -> if not (check_budget path reports) then exit 1
    | None -> if total_errors > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Run the static analyzers (dataflow, deadlock, value ranges, \
          resource estimates, concurrency ordering) on compiled programs")
    Term.(
      const run $ targets $ all $ json $ ranges $ resources $ dump_ranges
      $ input_range $ order $ dump_hb $ no_repair $ equiv $ reference
      $ budget $ dim_arg)

(* ---- batch ---- *)

let batch_cmd =
  let model =
    Arg.(
      required
      & opt (some string) None
      & info [ "model" ] ~docv:"MODEL"
          ~doc:"Model to serve (zoo name or description file).")
  in
  let batch_size =
    Arg.(
      value & opt int 16
      & info [ "batch-size" ] ~doc:"Number of independent inference requests.")
  in
  let domains =
    Arg.(
      value & opt int 0
      & info [ "domains" ]
          ~doc:
            "Worker domains (and simulated PUMA nodes) to shard the batch \
             across; 0 picks the host's recommended count.")
  in
  let seed =
    Arg.(
      value & opt int 7
      & info [ "seed" ]
          ~doc:
            "Batch RNG seed; request $(i)'s inputs depend only on the seed \
             and $(i), never on the worker count.")
  in
  let profile =
    Arg.(
      value & flag
      & info [ "profile" ]
          ~doc:
            "Attach the cycle-level profiler to every worker's machine (a \
             cluster's every chip with --nodes) and report the batch's \
             stall decomposition.")
  in
  let run model batch_size domains seed profile nodes topology scheme dim =
    match find_mini model with
    | Error e -> exit_err e
    | Ok m ->
        if batch_size <= 0 then exit_err "batch size must be positive";
        let cluster = cluster_of ~nodes scheme in
        let domains =
          if domains = 0 then Puma_util.Pool.default_domains ()
          else if domains < 0 then exit_err "domains must be positive"
          else domains
        in
        let config = config_of_dim dim in
        let cache = Puma_runtime.Program_cache.create () in
        let g = graph_of m in
        let result =
          if cluster <> None then
            compile ~options:{ Compile.default_options with cluster } config g
          else
            Puma_runtime.Program_cache.get cache ~config ~key:model (fun () ->
                g)
        in
        let program = result.Puma_compiler.Compile.program in
        let cluster_nodes =
          if nodes > 1 then Some result.Puma_compiler.Compile.nodes_used
          else None
        in
        let topology =
          if nodes > 1 then Some (parse_topology topology) else None
        in
        let requests =
          Puma_runtime.Batch.random_requests program ~batch:batch_size ~seed
        in
        let t0 = Monotonic_clock.now () in
        let responses, summary =
          Puma_runtime.Batch.run ~domains ~profile ?cluster_nodes
            ?topology program requests
        in
        let host_s =
          Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) *. 1e-9
        in
        (* Spot-check the first request against the float reference. *)
        let req = List.hd requests in
        let resp = responses.(0) in
        let err =
          List.fold_left
            (fun acc (name, want) ->
              Float.max acc
                (Puma_util.Tensor.vec_max_abs_diff want
                   (List.assoc name resp.Puma_runtime.Batch.outputs)))
            0.0
            (Puma.reference g req.Puma_runtime.Batch.inputs)
        in
        Format.printf "%a@." Puma_runtime.Batch.pp_summary summary;
        Printf.printf "host wall time       %.3f s (%.1f inf/s simulated on %d worker domain%s)\n"
          host_s summary.Puma_runtime.Batch.throughput_inf_s domains
          (if domains = 1 then "" else "s");
        Printf.printf "request 0 max |error| vs float reference: %.5f\n" err
  in
  Cmd.v
    (Cmd.info "batch"
       ~doc:
         "Serve a batch of inferences across parallel simulated nodes \
          (deterministic: outputs and per-request cycles are bit-identical \
          for any --domains); --nodes > 1 serves every request on a \
          multi-chip cluster instead of a single node")
    Term.(
      const run $ model $ batch_size $ domains $ seed $ profile $ nodes_arg
      $ topology_arg $ scheme_arg $ dim_arg)

(* ---- serve ---- *)

module Serve_engine = Puma_serve.Engine
module Serve_trace = Puma_serve.Trace
module Serve_arrival = Puma_serve.Arrival

(* Serving-budget gate (serve --budget FILE). The baseline maps model
   names to latency ceilings; a model absent from the file is
   unconstrained. *)
let check_serve_budget path (report : Serve_engine.report) =
  let module Json = Puma_util.Json in
  let budget =
    match
      let ic = open_in_bin path in
      let n = in_channel_length ic in
      let s = really_input_string ic n in
      close_in ic;
      Json.parse s
    with
    | Ok j -> j
    | Error e -> exit_err (Printf.sprintf "%s: %s" path e)
    | exception Sys_error e -> exit_err e
  in
  let violations = ref [] in
  let violation fmt =
    Printf.ksprintf (fun s -> violations := s :: !violations) fmt
  in
  Array.iter
    (fun (m : Serve_engine.model_stats) ->
      match
        Option.bind (Json.member "models" budget) (Json.member m.name)
      with
      | None -> ()
      | Some entry ->
          let ceiling key got =
            match Option.bind (Json.member key entry) Json.to_float with
            | Some limit when got > limit ->
                violation "%s: %s %.4f exceeds the budgeted %.4f" m.name key
                  got limit
            | _ -> ()
          in
          ceiling "max_p50_ms" m.p50_ms;
          ceiling "max_p99_ms" m.p99_ms;
          ceiling "max_rejection_rate" m.rejection_rate)
    report.models;
  match List.rev !violations with
  | [] ->
      Printf.eprintf "serving budget %s: pass (%d model%s)\n%!" path
        (Array.length report.models)
        (if Array.length report.models = 1 then "" else "s");
      true
  | vs ->
      List.iter (fun v -> Printf.eprintf "budget violation: %s\n" v) vs;
      Printf.eprintf "serving budget %s: FAIL (%d violation%s)\n%!" path
        (List.length vs)
        (if List.length vs = 1 then "" else "s");
      false

let serve_cmd =
  let models_arg =
    Arg.(
      value
      & opt (list string) [ "mlp" ]
      & info [ "models" ] ~docv:"NAME[=PRIO],..."
          ~doc:
            "Comma-separated co-resident models (zoo names or description \
             files), each with an optional dispatch priority (higher wins; \
             default 0).")
  in
  let arrival =
    Arg.(
      value
      & opt string "poisson:2000"
      & info [ "arrival" ] ~docv:"SPEC"
          ~doc:
            "Arrival process: $(b,poisson:RATE), \
             $(b,bursty:BASE,BURST,PERIOD[,DUTY]) or \
             $(b,diurnal:MEAN,AMPLITUDE,PERIOD) (rates in requests per \
             virtual second).")
  in
  let duration =
    Arg.(
      value & opt float 0.01
      & info [ "duration" ] ~docv:"SECONDS"
          ~doc:"Virtual seconds of open-stream traffic to synthesize.")
  in
  let nodes =
    Arg.(value & opt int 4 & info [ "nodes" ] ~doc:"Simulated fleet size.")
  in
  let cluster_nodes =
    Arg.(
      value & opt int 1
      & info [ "cluster-nodes" ]
          ~doc:
            "Chips per fleet machine: every --nodes slot becomes a cluster \
             of this many chips (split by --scheme, connected by \
             --topology); 1 keeps single-chip machines.")
  in
  let max_batch =
    Arg.(
      value & opt int 4
      & info [ "max-batch" ]
          ~doc:"Largest same-model batch a free node dispatches.")
  in
  let queue_limit =
    Arg.(
      value & opt int 0
      & info [ "queue-limit" ]
          ~doc:
            "Per-model admission bound on waiting requests (0 = unbounded).")
  in
  let slo =
    Arg.(
      value
      & opt (some float) None
      & info [ "slo-ms" ] ~docv:"MS"
          ~doc:"Per-model latency target, virtual milliseconds (reporting).")
  in
  let seed =
    Arg.(
      value & opt int 11
      & info [ "seed" ] ~doc:"Arrival-process seed (times and model mix).")
  in
  let input_seed =
    Arg.(
      value & opt int 7
      & info [ "input-seed" ] ~doc:"Root seed of every request's inputs.")
  in
  let domains =
    Arg.(
      value & opt int 0
      & info [ "domains" ]
          ~doc:
            "Worker domains for the simulation phase; 0 picks the host's \
             recommended count. The report is identical for any value.")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Emit the report as one JSON document.")
  in
  let trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:"Record the run (workload + every decision) to a trace file.")
  in
  let replay =
    Arg.(
      value
      & opt (some string) None
      & info [ "replay" ] ~docv:"FILE"
          ~doc:
            "Replay a recorded trace: rerun its workload on a freshly \
             compiled fleet and fail unless every decision reproduces bit \
             for bit. Overrides the workload and fleet options.")
  in
  let budget =
    Arg.(
      value
      & opt (some string) None
      & info [ "budget" ] ~docv:"FILE"
          ~doc:
            "Gate against a serving-budget baseline: fail if any model's \
             p50/p99 latency or rejection rate exceeds its ceiling in FILE.")
  in
  let compile_fleet ?cluster ~config specs =
    let cache =
      Puma_runtime.Program_cache.create ~capacity:(List.length specs) ()
    in
    List.map
      (fun (name, priority, queue_limit, slo_ms) ->
        match find_mini name with
        | Error e -> exit_err e
        | Ok m ->
            let r =
              match cluster with
              | Some _ ->
                  (* Cluster layouts are not what the cache holds; compile
                     directly with the node-aware partitioner. *)
                  let options = { Compile.default_options with cluster } in
                  compile ~options config (graph_of m)
              | None ->
                  Puma_runtime.Program_cache.get cache ~config ~key:name
                    (fun () -> graph_of m)
            in
            Serve_engine.model ~priority ~queue_limit ?slo_ms ~name
              r.Puma_compiler.Compile.program)
      specs
    |> Array.of_list
  in
  let finish ~json ~budget report =
    if json then
      print_endline (Puma_util.Json.to_string (Serve_engine.to_json report))
    else begin
      Puma_util.Table.print (Serve_engine.report_table report);
      Format.printf "%a@." Serve_engine.pp_report report
    end;
    match budget with
    | Some path -> if not (check_serve_budget path report) then exit 1
    | None -> ()
  in
  let run models arrival duration nodes cluster_nodes topology scheme
      max_batch queue_limit slo seed input_seed domains json trace replay
      budget dim =
    let domains =
      if domains = 0 then Puma_util.Pool.default_domains ()
      else if domains < 0 then exit_err "domains must be positive"
      else domains
    in
    if cluster_nodes < 1 then exit_err "--cluster-nodes must be positive";
    let cluster =
      if cluster_nodes > 1 then
        Some { Partition.nodes = cluster_nodes; scheme = parse_scheme scheme }
      else None
    in
    let cluster_nodes = if cluster_nodes > 1 then Some cluster_nodes else None in
    let cluster_topology =
      match cluster_nodes with
      | Some _ -> Some (parse_topology topology)
      | None -> None
    in
    match replay with
    | Some path -> (
        match Serve_trace.load path with
        | Error e -> exit_err e
        | Ok t ->
            let fleet =
              compile_fleet ~config:(config_of_dim t.Serve_trace.mvmu_dim)
                (Array.to_list t.Serve_trace.models
                |> List.map (fun (m : Serve_trace.model_spec) ->
                       (m.name, m.priority, m.queue_limit, m.slo_ms)))
            in
            let report =
              Serve_engine.run ~domains (Serve_trace.config_of t) fleet
                (Serve_trace.workload_of t)
            in
            (match Serve_trace.check t report with
            | Ok () ->
                Printf.eprintf "replay %s: %d requests reproduced exactly\n%!"
                  path
                  (Array.length t.Serve_trace.requests)
            | Error e -> exit_err (Printf.sprintf "replay diverged: %s" e));
            finish ~json ~budget report)
    | None ->
        if models = [] then exit_err "name at least one model (--models)";
        if nodes <= 0 then exit_err "nodes must be positive";
        if max_batch <= 0 then exit_err "max batch must be positive";
        if queue_limit < 0 then exit_err "queue limit must be non-negative";
        if duration <= 0.0 then exit_err "duration must be positive";
        let specs =
          List.map
            (fun entry ->
              match String.index_opt entry '=' with
              | None -> (entry, 0, queue_limit, slo)
              | Some i -> (
                  let name = String.sub entry 0 i in
                  let prio =
                    String.sub entry (i + 1) (String.length entry - i - 1)
                  in
                  match int_of_string_opt prio with
                  | Some p -> (name, p, queue_limit, slo)
                  | None ->
                      exit_err
                        (Printf.sprintf "bad priority %S for model %S" prio
                           name)))
            models
        in
        let process =
          match Serve_arrival.parse arrival with
          | Ok p -> p
          | Error e -> exit_err (Printf.sprintf "bad --arrival: %s" e)
        in
        let config = config_of_dim dim in
        let fleet = compile_fleet ?cluster ~config specs in
        let workload =
          Serve_engine.synthesize ~models:(Array.length fleet) process ~seed
            ~duration_s:duration ~frequency_ghz:config.Config.frequency_ghz
        in
        let serve_config =
          { Serve_engine.nodes; max_batch; input_seed }
        in
        let report =
          Serve_engine.run ~domains ?cluster_nodes
            ?topology:cluster_topology serve_config fleet workload
        in
        (match trace with
        | Some path ->
            Serve_trace.save path
              (Serve_trace.of_report
                 ~arrival_spec:(Serve_arrival.to_spec process) fleet report);
            Printf.eprintf "wrote trace to %s\n%!" path
        | None -> ());
        finish ~json ~budget report
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Serve an open request stream against a fleet of nodes with \
          co-resident models: deterministic virtual-clock scheduling, \
          continuous batching, admission control, tail-latency and energy \
          reporting, record/replay")
    Term.(
      const run $ models_arg $ arrival $ duration $ nodes $ cluster_nodes
      $ topology_arg $ scheme_arg $ max_batch $ queue_limit $ slo $ seed
      $ input_seed $ domains $ json $ trace $ replay $ budget $ dim_arg)

(* ---- profile ---- *)

let profile_cmd =
  let target =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"MODEL"
          ~doc:
            "Zoo model name, .model description file, or compiled program \
             file (as written by compile -o).")
  in
  let runs =
    Arg.(
      value & opt int 1
      & info [ "runs" ] ~doc:"Number of inferences to profile.")
  in
  let seed = Arg.(value & opt int 7 & info [ "seed" ] ~doc:"Input RNG seed.") in
  let top =
    Arg.(
      value & opt int 10
      & info [ "top" ] ~doc:"Entries in the top-stall ranking.")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Emit the profile as one JSON document.")
  in
  let chrome =
    Arg.(
      value
      & opt (some string) None
      & info [ "chrome-trace" ] ~docv:"FILE"
          ~doc:
            "Also write a Chrome trace-event file (load in chrome://tracing \
             or ui.perfetto.dev; 1 trace microsecond = 1 simulated cycle).")
  in
  let run target runs seed top json chrome dim =
    if runs <= 0 then exit_err "--runs must be positive";
    (* Gate off, as in analyze/bench: a program that fails static analysis
       (lenet5's known core-imem overflow) still simulates, and profiling
       it is exactly the point. *)
    let compile_model m =
      let options = { Compile.default_options with analysis_gate = false } in
      (compile ~options (config_of_dim dim) (graph_of m))
        .Compile.program
    in
    let program =
      if Sys.file_exists target && not (Sys.is_directory target) then
        match Puma_isa.Program_io.load target with
        | Ok program ->
            Puma_isa.Check.check_exn program;
            program
        | Error _ -> (
            match find_mini target with
            | Ok m -> compile_model m
            | Error e -> exit_err e)
      else
        match find_mini target with
        | Ok m -> compile_model m
        | Error e -> exit_err e
    in
    let node = Puma_sim.Node.create program in
    let profile = Puma_profile.Profile.create () in
    Puma_profile.Profile.attach profile node;
    let rng = Puma_util.Rng.create seed in
    let lengths = Puma_runtime.Batch.input_lengths program in
    for _ = 1 to runs do
      let inputs =
        List.map
          (fun (name, len) -> (name, Puma_util.Tensor.vec_rand rng len 0.8))
          lengths
      in
      ignore (Puma_sim.Node.run node ~inputs)
    done;
    Puma_sim.Node.finish_energy node;
    if json then
      print_endline
        (Puma_util.Json.to_string (Puma_profile.Profile.to_json profile))
    else print_string (Puma_profile.Profile.report ~top profile);
    match chrome with
    | Some path ->
        Puma_profile.Chrome_trace.write path profile;
        Printf.printf "wrote Chrome trace to %s (%d slices%s)\n" path
          (List.length (Puma_profile.Profile.slices profile))
          (let d = Puma_profile.Profile.dropped_slices profile in
           if d > 0 then Printf.sprintf ", %d dropped" d else "")
    | None -> ()
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Simulate with the cycle-level profiler attached: stall accounting, \
          per-tile energy attribution, optional Chrome trace export")
    Term.(
      const run $ target $ runs $ seed $ top $ json $ chrome $ dim_arg)

(* ---- faults ---- *)

let faults_cmd =
  let model =
    Arg.(
      required
      & opt (some string) None
      & info [ "model" ] ~docv:"MODEL"
          ~doc:"Model to stress (zoo name or description file).")
  in
  let rates =
    Arg.(
      value & opt_all float []
      & info [ "rate" ] ~docv:"RATE"
          ~doc:
            "Device/line fault rate to sweep (repeatable); defaults to \
             1e-4, 1e-3, 1e-2.")
  in
  let seeds =
    Arg.(
      value & opt int 2
      & info [ "seeds" ] ~doc:"Fault-realization seeds per rate.")
  in
  let fault_seed =
    Arg.(
      value & opt int 1
      & info [ "fault-seed" ]
          ~doc:"First fault seed; --seeds N sweeps N consecutive seeds.")
  in
  let samples =
    Arg.(
      value & opt int 8
      & info [ "samples" ] ~doc:"Inference requests per campaign point.")
  in
  let input_seed =
    Arg.(value & opt int 7 & info [ "input-seed" ] ~doc:"Batch input seed.")
  in
  let remap =
    Arg.(
      value & flag
      & info [ "remap" ]
          ~doc:
            "Run the fault-aware remapping pass: permute logical matrix \
             lines onto healthy crossbar lines before programming.")
  in
  let stuck_on =
    Arg.(
      value & opt float 0.5
      & info [ "stuck-on" ] ~doc:"Fraction of stuck devices pinned ON.")
  in
  let drift_tau =
    Arg.(
      value & opt float 0.0
      & info [ "drift-tau" ]
          ~doc:"Conductance-drift time constant in cycles (0 disables).")
  in
  let drift_age =
    Arg.(
      value & opt float 0.0
      & info [ "drift-age" ] ~doc:"Drift age at read time, in cycles.")
  in
  let adc_sigma =
    Arg.(
      value & opt float 0.0
      & info [ "adc-sigma" ]
          ~doc:"Sigma of the static per-column ADC offset, in LSBs.")
  in
  let domains =
    Arg.(
      value & opt int 0
      & info [ "domains" ]
          ~doc:
            "Worker domains to shard campaign points across; 0 picks the \
             host's recommended count.")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Emit the campaign report as one JSON document.")
  in
  let run model rates seeds fault_seed samples input_seed remap stuck_on
      drift_tau drift_age adc_sigma domains json nodes topology scheme dim =
    match find_mini model with
    | Error e -> exit_err e
    | Ok m ->
        if seeds <= 0 then exit_err "--seeds must be positive";
        if samples <= 0 then exit_err "--samples must be positive";
        let cluster = cluster_of ~nodes scheme in
        let domains =
          if domains = 0 then Puma_util.Pool.default_domains ()
          else if domains < 0 then exit_err "domains must be positive"
          else domains
        in
        let base =
          {
            Puma_fault.Fault_model.ideal with
            stuck_on_fraction = stuck_on;
            drift_tau_cycles = drift_tau;
            drift_age_cycles = drift_age;
            adc_offset_sigma = adc_sigma;
          }
        in
        (match Puma_fault.Fault_model.validate base with
        | Ok _ -> ()
        | Error e -> exit_err e);
        let spec =
          {
            Puma_fault.Campaign.base;
            rates =
              (if rates = [] then Puma_fault.Campaign.default_spec.rates
               else rates);
            fault_seeds = List.init seeds (fun i -> fault_seed + i);
            samples;
            input_seed;
            remap;
          }
        in
        let result =
          compile
            ~options:{ Compile.default_options with cluster }
            (config_of_dim dim) (graph_of m)
        in
        (* Without a cluster option, [nodes_used] counts the chips the
           program spills onto, which one chip's simulator models itself. *)
        let nodes_used =
          if nodes > 1 then result.Compile.nodes_used else 1
        in
        let report =
          Puma_fault.Campaign.run ~domains ~nodes:nodes_used
            ~topology:(parse_topology topology) ~key:model
            result.Compile.program spec
        in
        if json then
          print_endline
            (Puma_util.Json.to_string (Puma_fault.Campaign.to_json report))
        else begin
          Puma_util.Table.print (Puma_fault.Campaign.table report);
          Array.iter
            (fun (p : Puma_fault.Campaign.point) ->
              List.iter
                (fun d ->
                  Format.printf "rate %.0e seed %d: %a@." p.rate p.fault_seed
                    Puma_analysis.Diag.pp d)
                p.diags)
            report.points
        end
  in
  Cmd.v
    (Cmd.info "faults"
       ~doc:
         "Monte-Carlo fault-injection campaign: sweep stuck-cell / \
          dead-line rates across seeds, compare against a golden \
          fault-free run, optionally heal with the remapping pass; with \
          --nodes each chip realizes its faults independently and the \
          report adds per-chip blast radius")
    Term.(
      const run $ model $ rates $ seeds $ fault_seed $ samples $ input_seed
      $ remap $ stuck_on $ drift_tau $ drift_age $ adc_sigma $ domains $ json
      $ nodes_arg $ topology_arg $ scheme_arg $ dim_arg)

(* ---- estimate ---- *)

let estimate_cmd =
  let model =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"MODEL")
  in
  let batch = Arg.(value & opt int 1 & info [ "batch" ] ~doc:"Batch size.") in
  let layers =
    Arg.(value & flag & info [ "layers" ] ~doc:"Per-layer timing breakdown.")
  in
  let run model batch layers =
    match find_full model with
    | Error e -> exit_err e
    | Ok net ->
        let config = Config.sweetspot in
        let w = Puma_baselines.Workload.of_network ~dim:config.mvmu_dim net in
        let p = Puma_baselines.Puma_model.estimate config w ~batch in
        Printf.printf
          "PUMA: %.3f ms, %.3f mJ, %.1f inf/s (%d nodes, %d tiles, %.0f MVM \
           executions)\n"
          (p.latency_s *. 1e3) (p.energy_j *. 1e3) p.throughput_inf_s p.nodes
          p.tiles_used p.mvm_executions;
        List.iter
          (fun spec ->
            let e = Puma_baselines.Platform.estimate spec w ~batch in
            Printf.printf
              "%-8s %.3f ms, %.3f mJ  (PUMA advantage: %.1fx energy, %.2fx \
               latency)\n"
              spec.Puma_baselines.Platform.name (e.latency_s *. 1e3)
              (e.energy_j *. 1e3)
              (e.energy_j /. p.energy_j)
              (e.latency_s /. p.latency_s))
          Puma_baselines.Platform.all;
        if layers then begin
          Printf.printf "%-28s %6s %7s %7s %12s %12s\n" "layer" "steps"
            "slots" "copies" "first (us)" "stream (us)";
          List.iter
            (fun (r : Puma_baselines.Puma_model.layer_report) ->
              Printf.printf "%-28s %6d %7d %7d %12.2f %12.2f\n" r.label
                r.steps r.slots r.copies r.t_first_us r.t_stream_us)
            (Puma_baselines.Puma_model.layer_reports config w)
        end
  in
  Cmd.v
    (Cmd.info "estimate"
       ~doc:"Analytical PUMA vs CPU/GPU estimate for a Table 5 model")
    Term.(const run $ model $ batch $ layers)

(* ---- table3 ---- *)

let table3_cmd =
  let run () =
    let t =
      Puma_util.Table.create ~title:"PUMA Hardware Characteristics"
        ~headers:[ "Component"; "Power (mW)"; "Area (mm2)"; "Parameter"; "Spec" ]
    in
    List.iter
      (fun (c : Puma_hwmodel.Table3.component) ->
        Puma_util.Table.add_row t
          [
            c.name;
            Printf.sprintf "%.3f" c.power_mw;
            Printf.sprintf "%.4f" c.area_mm2;
            c.parameter;
            c.specification;
          ])
      (Puma_hwmodel.Table3.all Config.default);
    Puma_util.Table.print t
  in
  Cmd.v (Cmd.info "table3" ~doc:"Print the Table 3 component inventory")
    Term.(const run $ const ())

(* ---- accuracy ---- *)

let accuracy_cmd =
  let bits = Arg.(value & opt int 2 & info [ "bits" ] ~doc:"Bits per cell.") in
  let sigma =
    Arg.(value & opt float 0.1 & info [ "sigma" ] ~doc:"Write noise sigma_N.")
  in
  let samples =
    Arg.(value & opt int 20 & info [ "samples" ] ~doc:"Samples per programming.")
  in
  let run bits sigma samples =
    let acc =
      Puma.Accuracy.synthetic_classification ~bits_per_cell:bits ~sigma
        ~samples ()
    in
    Printf.printf "accuracy at %d bits/cell, sigma=%.2f: %.1f%%\n" bits sigma
      (100.0 *. acc)
  in
  Cmd.v
    (Cmd.info "accuracy" ~doc:"Figure 13 accuracy point for one configuration")
    Term.(const run $ bits $ sigma $ samples)

let () =
  let doc = "PUMA memristor-accelerator toolchain" in
  let info = Cmd.info "puma" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            models_cmd;
            compile_cmd;
            analyze_cmd;
            graph_cmd;
            exec_cmd;
            run_cmd;
            batch_cmd;
            serve_cmd;
            faults_cmd;
            profile_cmd;
            estimate_cmd;
            table3_cmd;
            accuracy_cmd;
          ]))
