(* puma_cli: command-line front end.

   dune exec bin/puma_cli.exe -- models
   dune exec bin/puma_cli.exe -- compile mlp --asm
   dune exec bin/puma_cli.exe -- analyze --all --json
   dune exec bin/puma_cli.exe -- run lstm
   dune exec bin/puma_cli.exe -- batch --model mlp --batch-size 16 --fleet 4
   dune exec bin/puma_cli.exe -- estimate BigLSTM --batch 16
   dune exec bin/puma_cli.exe -- table3
   dune exec bin/puma_cli.exe -- accuracy --bits 2 --sigma 0.1

   Every command reads its inputs through the shared terms below (one
   target resolver, one --dim, one machine, one --domains) and compiles
   through the one [compile] helper, so an invalid input or a rejected
   compile is an "error:" line and exit 1 on every command. *)

open Cmdliner
module Config = Puma_hwmodel.Config
module Models = Puma_nn.Models
module Network = Puma_nn.Network
module Graph = Puma_graph.Graph
module Compile = Puma_compiler.Compile
module Partition = Puma_compiler.Partition
module Fabric = Puma_noc.Fabric
module Cluster = Puma_cluster.Cluster
module Node = Puma_sim.Node
module Program = Puma_isa.Program
module Batch = Puma_runtime.Batch
module Json = Puma_util.Json
module Diag = Puma_analysis.Diag
module Serve_engine = Puma_serve.Engine
module Serve_trace = Puma_serve.Trace
module Serve_arrival = Puma_serve.Arrival

let exit_err msg =
  prerr_endline ("error: " ^ msg);
  exit 1

let ok_or_exit = function Ok v -> v | Error e -> exit_err e

(* A simulator failure on a loaded program (a deadlock, an access
   outside shared memory, a receive of the wrong width, the cycle cap) is
   an error exit, not an uncaught exception. *)
let simulate f =
  try f () with
  | Node.Deadlock msg -> exit_err ("deadlock: " ^ msg)
  | Invalid_argument msg | Failure msg -> exit_err msg

(* ---- Targets: models and saved programs ---- *)

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

let graph_of = function `Net n -> Network.build_graph n | `Graph g -> g

let find_full name =
  let canon = String.lowercase_ascii name in
  List.find_opt (fun (n, _) -> String.lowercase_ascii n = canon) full_models
  |> Option.map snd

(* A command's target: a compiled program file (as written by compile -o),
   a .model description file, a zoo name, or a Table 5 model (at full size
   these want several chips and usually --seq-len 1). A saved program must
   pass the structural check, except under [analyze], which reports the
   same findings itself. *)
let resolve ?(check = true) name =
  if Sys.file_exists name && not (Sys.is_directory name) then
    match Puma_isa.Program_io.load name with
    | Ok program ->
        (if check then
           match Puma_isa.Check.diagnose program with
           | [] -> ()
           | ds ->
               exit_err
                 (String.concat "\n"
                    ((name ^ " fails the structural check:")
                    :: List.map Diag.to_string ds)));
        `Program program
    | Error program_err -> (
        match Puma_nn.Model_desc.parse_file name with
        | Ok net -> `Model (`Net net)
        | Error model_err ->
            exit_err
              (Printf.sprintf
                 "%s: neither a compiled program (%s) nor a model \
                  description (%s)"
                 name program_err model_err))
  else
    match List.assoc_opt (String.lowercase_ascii name) mini_models with
    | Some m -> `Model m
    | None -> (
        match find_full name with
        | Some n -> `Model (`Net n)
        | None ->
            exit_err
              (Printf.sprintf
                 "unknown model %S (try a description file or: %s; full-size: \
                  %s)"
                 name
                 (String.concat ", " (List.map fst mini_models))
                 (String.concat ", " (List.map fst full_models))))

let model_of name =
  match resolve name with
  | `Model m -> m
  | `Program _ ->
      exit_err (name ^ " is a compiled program; this command takes a model")

let model_pos =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"MODEL")

(* ---- Shared terms ---- *)

let seed_arg = Arg.(value & opt int 7 & info [ "seed" ] ~doc:"Input RNG seed.")

(* An integer option that must be positive. *)
let positive name default ~doc =
  let check n =
    if n <= 0 then exit_err (Printf.sprintf "--%s must be positive" name);
    n
  in
  let arg = Arg.(value & opt int default & info [ name ] ~doc) in
  Term.(const check $ arg)

(* [label] names where the dimension came from in the error line. *)
let config_of_dim ~label dim =
  match Config.validate { Config.sweetspot with mvmu_dim = dim } with
  | Ok c -> c
  | Error e -> exit_err (Printf.sprintf "%s %d: %s" label dim e)

(* The crossbar dimension, checked with the whole configuration. *)
let config_term =
  Term.(
    const (config_of_dim ~label:"--dim")
    $ Arg.(
        value & opt int 128
        & info [ "dim" ] ~doc:"Crossbar dimension (power of two)."))

type machine = {
  nodes : int;
  scheme : Partition.scheme;
  topology : Fabric.topology;
}

let machine_of ~nodes ~scheme ~topology =
  if nodes < 1 then exit_err "--nodes must be positive";
  {
    nodes;
    scheme =
      (match Partition.scheme_of_string scheme with
      | Some s -> s
      | None ->
          exit_err
            (Printf.sprintf "unknown scheme %S (try pipelined, sharded)"
               scheme));
    topology =
      (match Fabric.topology_of_string topology with
      | Some t -> t
      | None ->
          exit_err
            (Printf.sprintf "unknown topology %S (try mesh, ring, all-to-all)"
               topology));
  }

let machine_args topology =
  let nodes =
    Arg.(
      value & opt int 1
      & info [ "nodes" ] ~docv:"N"
          ~doc:
            "Chips per machine: split the model across this many PUMA nodes, \
             partitioned by --scheme and connected by the --topology fabric; \
             1 keeps a single chip.")
  in
  let scheme =
    Arg.(
      value & opt string "pipelined"
      & info [ "scheme" ] ~docv:"SCHEME"
          ~doc:
            "Cross-node partitioning scheme: $(b,pipelined) (contiguous layer \
             blocks per node) or $(b,sharded) (matrix row blocks round-robined \
             across nodes).")
  in
  Term.(
    const (fun nodes scheme topology -> machine_of ~nodes ~scheme ~topology)
    $ nodes $ scheme $ topology)

let machine_term =
  machine_args
    Arg.(
      value & opt string "mesh"
      & info [ "topology" ] ~docv:"TOPO"
          ~doc:
            "Chip-to-chip fabric topology: $(b,mesh), $(b,ring) or \
             $(b,all-to-all).")

(* [compile] only partitions: the fabric is chosen when the program runs. *)
let partition_term = machine_args (Term.const "mesh")

let single_chip =
  { nodes = 1; scheme = Partition.Pipelined; topology = Fabric.Mesh2d }

let domains_term =
  let check d =
    if d = 0 then Puma_util.Pool.default_domains ()
    else if d < 0 then exit_err "--domains must be positive"
    else d
  in
  Term.(
    const check
    $ Arg.(
        value & opt int 0
        & info [ "domains" ]
            ~doc:
              "Worker domains to shard the host work across; 0 picks the \
               host's recommended count. Results are identical for any \
               value."))

let fleet_term =
  positive "fleet" 4
    ~doc:"Simulated fleet size: machines that each hold every model."

(* ---- Compile ---- *)

(* The one compile path. A compile-time [Failure] (Codegen's E-SMEM,
   E-FIFO and E-COUNT budgets, the analysis gate's report) is an error
   exit, not an uncaught exception. *)
let compile ?(options = Compile.default_options) ?(machine = single_chip)
    config g =
  let cluster =
    if machine.nodes = 1 then None
    else Some { Partition.nodes = machine.nodes; scheme = machine.scheme }
  in
  try Compile.compile ~options:{ options with cluster } config g
  with Failure msg -> exit_err msg

(* Gate off, so a failing program still yields its full report (analyze)
   or simulates (profile). *)
let gate_off = { Compile.default_options with analysis_gate = false }

(* Random inputs in [-0.8, 0.8] for every input a program binds. *)
let random_inputs rng program =
  List.map
    (fun (name, len) -> (name, Puma_util.Tensor.vec_rand rng len 0.8))
    (Batch.input_lengths program)

let read_json path =
  match In_channel.with_open_bin path In_channel.input_all with
  | text -> (
      match Json.parse text with
      | Ok j -> j
      | Error e -> exit_err (Printf.sprintf "%s: %s" path e))
  | exception Sys_error e -> exit_err e

(* A budget gate's verdict on stderr; a violation exits 1. *)
let budget_verdict ~what ~count ~noun path violations =
  let plural n = if n = 1 then "" else "s" in
  match violations with
  | [] ->
      Printf.eprintf "%s budget %s: pass (%d %s%s)\n%!" what path count noun
        (plural count)
  | vs ->
      List.iter (fun v -> Printf.eprintf "budget violation: %s\n" v) vs;
      Printf.eprintf "%s budget %s: FAIL (%d violation%s)\n%!" what path
        (List.length vs)
        (plural (List.length vs));
      exit 1

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
            let s = Graph.stats g in
            Format.printf "  %-8s %s: %d MVM ops, %d params@." name
              (Graph.name g) s.Graph.num_mvms s.Graph.weight_params)
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
  let asm =
    Arg.(value & flag & info [ "asm" ] ~doc:"Dump the per-core assembly.")
  in
  let output =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~doc:"Write the compiled program to a file.")
  in
  let run model asm output machine config =
    let r = compile ~machine config (graph_of (model_of model)) in
    if machine.nodes > 1 then
      Printf.printf "partitioned %s across %d nodes (%d tiles/node)\n"
        (Partition.scheme_name machine.scheme)
        r.Compile.nodes_used r.Compile.tiles_per_node;
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
           source dataflow (%d MVM applications, %d instructions executed)\n"
          e.Puma_analysis.Equiv.output_words e.Puma_analysis.Equiv.mvm_apps
          e.Puma_analysis.Equiv.steps
    | None -> ());
    Format.printf "%a@." Puma_isa.Usage.pp (Compile.usage r);
    Option.iter
      (fun path ->
        Puma_isa.Program_io.save path r.Compile.program;
        Printf.printf "wrote %s\n" path)
      output;
    if asm then begin
      let layout = Puma_isa.Operand.layout config in
      Array.iter
        (fun (tp : Program.tile_program) ->
          Array.iteri
            (fun c code ->
              if Array.length code > 0 then
                Printf.printf "--- tile %d core %d ---\n%s" tp.tile_index c
                  (Puma_isa.Asm.program_to_string layout code))
            tp.core_code;
          if Array.length tp.tile_code > 0 then
            Printf.printf "--- tile %d control unit ---\n%s" tp.tile_index
              (Puma_isa.Asm.program_to_string layout tp.tile_code))
        r.Compile.program.tiles
    end
  in
  Cmd.v
    (Cmd.info "compile" ~doc:"Compile a model and report compiler statistics")
    Term.(
      const run $ model_pos $ asm $ output $ partition_term $ config_term)

(* ---- run ---- *)

let run_cmd =
  let seq_len =
    Arg.(
      value
      & opt (some int) None
      & info [ "seq-len" ] ~docv:"N"
          ~doc:
            "Override a recurrent model's sequence length (full-size models \
             default to their paper configuration; 1 keeps them tractable in \
             functional simulation).")
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
  let run model seed machine seq_len no_analysis config =
    let m =
      match (model_of model, seq_len) with
      | m, None -> m
      | `Net n, Some l when l >= 1 -> `Net (Network.with_seq_len n l)
      | `Net _, Some _ -> exit_err "--seq-len must be positive"
      | `Graph _, Some _ ->
          exit_err "--seq-len applies to layered networks only"
    in
    let g = graph_of m in
    let rng = Puma_util.Rng.create seed in
    let inputs =
      List.map
        (fun (n : Graph.node) ->
          match n.op with
          | Graph.Input name -> (name, Puma_util.Tensor.vec_rand rng n.len 0.8)
          | _ -> assert false)
        (Graph.inputs g)
    in
    let options =
      {
        Compile.default_options with
        static_analysis = not no_analysis;
        check_equiv = not no_analysis;
      }
    in
    let r = compile ~options ~machine config g in
    let program = r.Compile.program in
    let chips = machine.nodes > 1 in
    if chips then begin
      Printf.printf
        "partitioned %s across %d nodes (%s fabric, %d tiles/node)\n"
        (Partition.scheme_name machine.scheme)
        machine.nodes
        (Fabric.topology_name machine.topology)
        r.Compile.tiles_per_node;
      if not no_analysis then
        List.iter
          (fun (sr : Cluster.shard_report) ->
            Printf.printf
              "node %d gates: %d errors, %d warnings (%d out / %d in \
               cross-node channels)\n"
              sr.node sr.report.errors sr.report.warnings sr.cross_out
              sr.cross_in)
          (Cluster.analyze_shards ~nodes:machine.nodes program)
    end;
    let node =
      Cluster.node
        (Cluster.create ~nodes:machine.nodes ~topology:machine.topology program)
    in
    let got = Node.run node ~inputs in
    List.iter
      (fun (name, w) ->
        Printf.printf "output %s: max |error| vs float reference %.5f\n" name
          (Puma_util.Tensor.vec_max_abs_diff w (List.assoc name got)))
      (Puma.reference g inputs);
    Format.printf "%a@." Puma_sim.Metrics.pp (Puma_sim.Metrics.of_node node);
    if chips then
      Printf.printf "link words          %d\n"
        (Puma_hwmodel.Energy.count (Node.energy node) Offchip)
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:
         "Simulate one inference and validate it (optionally across a \
          multi-node cluster)")
    Term.(
      const run $ model_pos $ seed_arg $ machine_term $ seq_len $ no_analysis
      $ config_term)

(* ---- graph ---- *)

let graph_cmd =
  let dot = Arg.(value & flag & info [ "dot" ] ~doc:"Emit GraphViz DOT.") in
  let run model dot =
    let g = graph_of (model_of model) in
    if dot then print_string (Graph.to_dot g)
    else begin
      let s = Graph.stats g in
      Printf.printf
        "%s: %d nodes, %d MVM ops (%d MACs), %d vector ops, %d nonlinear \
         (%d transcendental), %d weight parameters, widest vector %d\n"
        (Graph.name g) (Graph.num_nodes g) s.Graph.num_mvms s.Graph.mvm_macs
        s.Graph.num_vector_ops s.Graph.num_nonlinear s.Graph.num_transcendental
        s.Graph.weight_params s.Graph.max_vector_len
    end
  in
  Cmd.v
    (Cmd.info "graph" ~doc:"Inspect a model's computational graph")
    Term.(const run $ model_pos $ dot)

(* ---- exec ---- *)

let exec_cmd =
  let file = Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE") in
  let run file seed =
    match resolve file with
    | `Model _ ->
        exit_err (file ^ " is a model; exec takes a compiled program file")
    | `Program program ->
        let node = Node.create program in
        let rng = Puma_util.Rng.create seed in
        let outputs =
          simulate (fun () -> Node.run node ~inputs:(random_inputs rng program))
        in
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
        Format.printf "%a@." Puma_sim.Metrics.pp (Puma_sim.Metrics.of_node node)
  in
  Cmd.v
    (Cmd.info "exec" ~doc:"Load a compiled program file and simulate it")
    Term.(const run $ file $ seed_arg)

(* ---- analyze ---- *)

(* Diagnostics-budget gate (--budget FILE). The baseline file maps each
   program name to the error codes it is allowed to report and the number
   of warnings it is allowed at most; anything beyond that — a new error,
   or a warning-count regression — fails the gate. Programs absent from
   the baseline get the strict default: no errors, no warnings. *)
let check_budget path reports =
  let budget = read_json path in
  let violations =
    List.concat_map
      (fun (name, (r : Puma_analysis.Analyze.report)) ->
        let entry =
          Option.bind (Json.member "models" budget) (Json.member name)
        in
        let field key = Option.bind entry (Json.member key) in
        let allowed_errors =
          Option.bind (field "allow_errors") Json.to_list
          |> Option.value ~default:[]
          |> List.filter_map Json.to_str
        in
        let max_warnings =
          Option.bind (field "max_warnings") Json.to_int
          |> Option.value ~default:0
        in
        List.filter_map
          (fun (d : Diag.t) ->
            if d.severity = Diag.Error && not (List.mem d.code allowed_errors)
            then
              Some (Printf.sprintf "%s: unbudgeted %s" name (Diag.to_string d))
            else None)
          r.diags
        @
        if r.warnings > max_warnings then
          [
            Printf.sprintf "%s: %d warnings exceed the budgeted %d" name
              r.warnings max_warnings;
          ]
        else [])
      reports
  in
  budget_verdict ~what:"diagnostics" ~count:(List.length reports)
    ~noun:"program" path violations

let analyze_cmd =
  let targets =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"TARGET"
          ~doc:
            "Zoo model name, .model description file, or compiled program \
             file (as written by compile -o).")
  in
  let flag name doc = Arg.(value & flag & info [ name ] ~doc) in
  let all = flag "all" "Analyze every simulation-scale zoo model." in
  let json = flag "json" "Emit one JSON document instead of text." in
  let dump_ranges =
    flag "dump-ranges"
      "Also emit I-RANGE infos listing the inferred interval of every \
       defined register."
  in
  let input_range =
    Arg.(
      value
      & opt (some (pair ~sep:',' float float)) None
      & info [ "input-range" ] ~docv:"LO,HI"
          ~doc:
            "Assume every program input lies in [LO, HI] (floats; default \
             the full fixed-point range).")
  in
  let dump_hb =
    flag "dump-hb"
      "Also dump the happens-before analysis' cross-stream ordering edges \
       as I-ORDER infos."
  in
  let no_repair =
    flag "no-repair"
      "Compile zoo models without the channel repair pass, so E-FIFO-ORDER \
       hazards in the raw generated code stay visible."
  in
  let reference =
    Arg.(
      value
      & opt (some string) None
      & info [ "reference" ] ~docv:"MODEL"
          ~doc:
            "The model whose dataflow program-file targets are validated \
             against (compiled at the same $(b,--dim)). Without it a \
             program file gets no translation validation, and an I-SKIP \
             info says so; model targets always validate against their own \
             compilation.")
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
  let run targets all json dump_ranges input_range dump_hb no_repair
      reference budget config =
    let targets = if all then List.map fst mini_models else targets in
    if targets = [] then
      exit_err "nothing to analyze (name a model or program file, or use --all)";
    let input_range =
      Option.map
        (fun (lo, hi) ->
          if not (Float.is_finite lo && Float.is_finite hi && lo <= hi) then
            exit_err
              (Printf.sprintf
                 "--input-range %g,%g is not a finite interval with LO <= HI" lo
                 hi);
          ( Puma_util.Fixed.to_raw (Puma_util.Fixed.of_float lo),
            Puma_util.Fixed.to_raw (Puma_util.Fixed.of_float hi) ))
        input_range
    in
    (* No gates in the compile: [Analyze.program] below runs them once,
       as a gated compile does, against the compilation's own reference
       dataflow. *)
    let options =
      {
        gate_off with
        check_equiv = false;
        static_analysis = false;
        repair_ordering = not no_repair;
      }
    in
    let compile_model m = compile ~options config (graph_of m) in
    (* Program-file targets are validated against the dataflow of
       --reference MODEL, compiled once at the same --dim. *)
    let reference_dataflow =
      lazy
        (Option.map
           (fun name -> (compile_model (model_of name)).Compile.equiv_reference)
           reference)
    in
    let report_of target =
      let analyze ?layer_of ?equiv program =
        Puma_analysis.Analyze.program ~ranges:true ~resources:true
          ?input_range ~dump_ranges ~order:true ~dump_hb ?equiv ?layer_of
          program
      in
      (* A compiled program file analyzes as-is (even if broken); a model
         compiles first, which also yields instruction->layer provenance
         for imem attribution. *)
      match resolve ~check:false target with
      | `Program program -> (
          match Lazy.force reference_dataflow with
          | Some equiv -> analyze ~equiv program
          | None ->
              let r = analyze program in
              Puma_analysis.Analyze.make_report
                (List.sort Diag.compare
                   (Diag.info ~code:"I-SKIP"
                      "translation validation not run: a program file is \
                       validated only against --reference MODEL"
                   :: r.Puma_analysis.Analyze.diags)))
      | `Model m ->
          let r = compile_model m in
          analyze ~layer_of:r.Compile.layer_of ~equiv:r.Compile.equiv_reference
            r.Compile.program
    in
    let reports = List.map (fun t -> (t, report_of t)) targets in
    let total_errors =
      List.fold_left
        (fun acc (_, r) -> acc + r.Puma_analysis.Analyze.errors)
        0 reports
    in
    if json then
      print_endline
        (Json.to_string
           (Json.Obj
              [
                ( "programs",
                  Json.List
                    (List.map
                       (fun (name, r) -> Puma_analysis.Analyze.json ~name r)
                       reports) );
                ("errors", Json.Int total_errors);
              ]))
    else
      List.iter
        (fun (name, r) ->
          Format.printf "== %s ==@.%a" name Puma_analysis.Analyze.pp r)
        reports;
    match budget with
    | Some path -> check_budget path reports
    | None -> if total_errors > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Run every static gate a compile runs (dataflow, deadlock, value \
          ranges, resource estimates, concurrency ordering, translation \
          validation) on compiled programs")
    Term.(
      const run $ targets $ all $ json $ dump_ranges $ input_range $ dump_hb
      $ no_repair $ reference $ budget $ config_term)

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
    positive "batch-size" 16 ~doc:"Number of independent inference requests."
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
  let run model batch_size domains fleet seed profile machine config =
    let g = graph_of (model_of model) in
    let program = (compile ~machine config g).Compile.program in
    let requests = Batch.random_requests program ~batch:batch_size ~seed in
    let t0 = Monotonic_clock.now () in
    let responses, occupancy =
      Batch.run ~domains ~profile ~cluster_nodes:machine.nodes
        ~topology:machine.topology program requests
    in
    let host_s =
      Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) *. 1e-9
    in
    let report =
      Serve_engine.burst ~nodes:fleet
        (Serve_engine.model ~name:model program)
        responses
    in
    (* Spot-check the first request against the float reference. *)
    let err =
      List.fold_left
        (fun acc (name, want) ->
          Float.max acc
            (Puma_util.Tensor.vec_max_abs_diff want
               (List.assoc name responses.(0).Batch.outputs)))
        0.0
        (Puma.reference g (List.hd requests).Batch.inputs)
    in
    let cycles =
      Array.map (fun (r : Batch.response) -> Float.of_int r.cycles) responses
    in
    Format.printf "%a@." Serve_engine.pp_report report;
    Printf.printf
      "service p50 / p95   %.0f / %.0f cycles per request; %.1f inf/s \
       simulated\n"
      (Puma_util.Stats.percentile cycles 50.0)
      (Puma_util.Stats.percentile cycles 95.0)
      report.models.(0).throughput_rps;
    if profile then
      Printf.printf "occupancy           %d busy cycles; stalled: %s\n"
        occupancy.busy_cycles
        (if occupancy.stall_cycles = [] then "none"
         else
           String.concat ", "
             (List.map
                (fun (reason, n) ->
                  Printf.sprintf "%d %s" n (Puma_arch.Core.stall_name reason))
                occupancy.stall_cycles));
    Printf.printf "host wall time      %.3f s on %d worker domain%s\n" host_s
      domains
      (if domains = 1 then "" else "s");
    Printf.printf "request 0 max |error| vs float reference: %.5f\n" err
  in
  Cmd.v
    (Cmd.info "batch"
       ~doc:
         "Serve a batch of inferences on a simulated fleet of --fleet \
          machines: the requests are simulated on parallel host domains \
          (outputs and per-request cycles are bit-identical for any \
          --domains), then scheduled as one burst by the serving engine; \
          --nodes > 1 serves every request on a multi-chip cluster instead \
          of a single node")
    Term.(
      const run $ model $ batch_size $ domains_term $ fleet_term $ seed
      $ profile $ machine_term $ config_term)

(* ---- serve ---- *)

(* Serving-budget gate (serve --budget FILE). The baseline maps model
   names to latency ceilings; a model absent from the file is
   unconstrained. *)
let check_serve_budget path (report : Serve_engine.report) =
  let budget = read_json path in
  let violations =
    Array.to_list report.models
    |> List.concat_map (fun (m : Serve_engine.model_stats) ->
           match
             Option.bind (Json.member "models" budget) (Json.member m.name)
           with
           | None -> []
           | Some entry ->
               List.filter_map
                 (fun (key, got) ->
                   match Option.bind (Json.member key entry) Json.to_float with
                   | Some limit when got > limit ->
                       Some
                         (Printf.sprintf "%s: %s %.4f exceeds the budgeted %.4f"
                            m.name key got limit)
                   | _ -> None)
                 [
                   ("max_p50_ms", m.p50_ms);
                   ("max_p99_ms", m.p99_ms);
                   ("max_rejection_rate", m.rejection_rate);
                 ])
  in
  budget_verdict ~what:"serving" ~count:(Array.length report.models)
    ~noun:"model" path violations

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
  let max_batch =
    positive "max-batch" 4
      ~doc:"Largest same-model batch a free machine dispatches."
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
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Emit the run as one JSON document: the report with the \
             machine keys, the same document $(b,--trace) writes.")
  in
  let trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Record the run (workload + every decision) to a trace file: \
             the document $(b,--json) prints.")
  in
  let replay =
    Arg.(
      value
      & opt (some string) None
      & info [ "replay" ] ~docv:"FILE"
          ~doc:
            "Replay a recorded trace (a $(b,--trace) file or $(b,--json) \
             output): rerun its workload on a freshly compiled fleet of the \
             recorded machines and fail unless the whole report reproduces \
             bit for bit. Overrides the workload, fleet and machine options.")
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
  let run models arrival duration fleet machine max_batch queue_limit slo seed
      input_seed domains json trace replay budget config =
    let serve ~arrival_spec machine models serve_config workload =
      let report =
        Serve_engine.run ~domains ~cluster_nodes:machine.nodes
          ~topology:machine.topology serve_config models workload
      in
      ( report,
        Serve_trace.of_report ~arrival_spec ~chips:machine.nodes
          ~scheme:machine.scheme ~topology:machine.topology models report )
    in
    let compile_program machine config name =
      (compile ~machine config (graph_of (model_of name))).Compile.program
    in
    let report, document =
      match replay with
      | Some path ->
          let t = ok_or_exit (Serve_trace.load path) in
          let machine =
            { nodes = t.chips; scheme = t.scheme; topology = t.topology }
          in
          let config = config_of_dim ~label:"trace mvmu_dim" t.mvmu_dim in
          let ((report, _) as run) =
            serve ~arrival_spec:t.arrival_spec machine
              (Serve_trace.models_of t
                 ~compile:(compile_program machine config))
              (Serve_trace.config_of t) (Serve_trace.workload_of t)
          in
          (match Serve_trace.check t report with
          | Ok () ->
              Printf.eprintf "replay %s: %d requests reproduced exactly\n%!"
                path report.arrivals
          | Error e -> exit_err (Printf.sprintf "replay diverged: %s" e));
          run
      | None ->
          if models = [] then exit_err "name at least one model (--models)";
          if queue_limit < 0 then exit_err "--queue-limit must be non-negative";
          if duration <= 0.0 then exit_err "--duration must be positive";
          let specs =
            List.map
              (fun entry ->
                match String.index_opt entry '=' with
                | None -> (entry, 0)
                | Some i -> (
                    let name = String.sub entry 0 i in
                    let prio =
                      String.sub entry (i + 1) (String.length entry - i - 1)
                    in
                    match int_of_string_opt prio with
                    | Some p -> (name, p)
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
          let workload =
            Serve_engine.synthesize ~models:(List.length specs) process ~seed
              ~duration_s:duration ~frequency_ghz:config.Config.frequency_ghz
          in
          let models =
            List.map
              (fun (name, priority) ->
                Serve_engine.model ~priority ~queue_limit ?slo_ms:slo ~name
                  (compile_program machine config name))
              specs
            |> Array.of_list
          in
          serve
            ~arrival_spec:(Serve_arrival.to_spec process)
            machine models
            { Serve_engine.nodes = fleet; max_batch; input_seed }
            workload
    in
    Option.iter
      (fun path ->
        Serve_trace.save path document;
        Printf.eprintf "wrote trace to %s\n%!" path)
      trace;
    if json then print_endline (Json.to_string (Serve_trace.to_json document))
    else begin
      Puma_util.Table.print (Serve_engine.report_table report);
      Format.printf "%a@." Serve_engine.pp_report report
    end;
    Option.iter (fun path -> check_serve_budget path report) budget
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Serve an open request stream against a fleet of machines (each of \
          --nodes chips) with co-resident models: deterministic \
          virtual-clock scheduling, continuous batching, admission control, \
          tail-latency and energy reporting, record/replay")
    Term.(
      const run $ models_arg $ arrival $ duration $ fleet_term $ machine_term
      $ max_batch $ queue_limit $ slo $ seed $ input_seed $ domains_term
      $ json $ trace $ replay $ budget $ config_term)

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
  let runs = positive "runs" 1 ~doc:"Number of inferences to profile." in
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
  let run target runs seed top json chrome config =
    (* A model compiles with the gate off, as in analyze/bench: a program
       that fails static analysis (lenet5's known core-imem overflow)
       still simulates, and profiling it is exactly the point. *)
    let program =
      match resolve target with
      | `Program p -> p
      | `Model m -> (compile ~options:gate_off config (graph_of m)).program
    in
    let node = Node.create program in
    let profile = Puma_profile.Profile.create () in
    Puma_profile.Profile.attach profile node;
    let rng = Puma_util.Rng.create seed in
    simulate (fun () ->
        for _ = 1 to runs do
          ignore (Node.run node ~inputs:(random_inputs rng program))
        done);
    Node.finish_energy node;
    if json then
      print_endline (Json.to_string (Puma_profile.Profile.to_json profile))
    else print_string (Puma_profile.Profile.report ~top profile);
    Option.iter
      (fun path ->
        Puma_profile.Chrome_trace.write path profile;
        Printf.printf "wrote Chrome trace to %s (%d slices%s)\n" path
          (List.length (Puma_profile.Profile.slices profile))
          (let d = Puma_profile.Profile.dropped_slices profile in
           if d > 0 then Printf.sprintf ", %d dropped" d else ""))
      chrome
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Simulate with the cycle-level profiler attached: stall accounting, \
          per-tile energy attribution, optional Chrome trace export")
    Term.(
      const run $ target $ runs $ seed_arg $ top $ json $ chrome $ config_term)

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
  let seeds = positive "seeds" 2 ~doc:"Fault-realization seeds per rate." in
  let fault_seed =
    Arg.(
      value & opt int 1
      & info [ "fault-seed" ]
          ~doc:"First fault seed; --seeds N sweeps N consecutive seeds.")
  in
  let samples =
    positive "samples" 8 ~doc:"Inference requests per campaign point."
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
  let float_opt name default doc =
    Arg.(value & opt float default & info [ name ] ~doc)
  in
  let stuck_on =
    float_opt "stuck-on" 0.5 "Fraction of stuck devices pinned ON."
  in
  let drift_tau =
    float_opt "drift-tau" 0.0
      "Conductance-drift time constant in cycles (0 disables)."
  in
  let drift_age =
    float_opt "drift-age" 0.0 "Drift age at read time, in cycles."
  in
  let adc_sigma =
    float_opt "adc-sigma" 0.0
      "Sigma of the static per-column ADC offset, in LSBs."
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Emit the campaign report as one JSON document.")
  in
  let run model rates seeds fault_seed samples input_seed remap stuck_on
      drift_tau drift_age adc_sigma domains json machine config =
    let base =
      ok_or_exit
        (Puma_xbar.Fault.validate
           {
             Puma_xbar.Fault.ideal with
             stuck_on_fraction = stuck_on;
             drift_tau_cycles = drift_tau;
             drift_age_cycles = drift_age;
             adc_offset_sigma = adc_sigma;
           })
    in
    let rates =
      if rates = [] then Puma_fault.Campaign.default_spec.rates else rates
    in
    List.iter
      (fun r ->
        match
          Puma_xbar.Fault.validate (Puma_fault.Campaign.at_rate base r)
        with
        | Ok _ -> ()
        | Error e -> exit_err ("--rate: " ^ e))
      rates;
    let spec =
      {
        Puma_fault.Campaign.base;
        rates;
        fault_seeds = List.init seeds (fun i -> fault_seed + i);
        samples;
        input_seed;
        remap;
      }
    in
    let program =
      (compile ~machine config (graph_of (model_of model))).Compile.program
    in
    let report =
      Puma_fault.Campaign.run ~domains ~nodes:machine.nodes
        ~topology:machine.topology ~key:model program spec
    in
    if json then
      print_endline (Json.to_string (Puma_fault.Campaign.to_json report))
    else begin
      Puma_util.Table.print (Puma_fault.Campaign.table report);
      Array.iter
        (fun (p : Puma_fault.Campaign.point) ->
          List.iter
            (fun d ->
              Format.printf "rate %.0e seed %d: %a@." p.rate p.fault_seed
                Diag.pp d)
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
      $ remap $ stuck_on $ drift_tau $ drift_age $ adc_sigma $ domains_term
      $ json $ machine_term $ config_term)

(* ---- estimate ---- *)

let estimate_cmd =
  let batch = positive "batch" 1 ~doc:"Batch size." in
  let layers =
    Arg.(value & flag & info [ "layers" ] ~doc:"Per-layer timing breakdown.")
  in
  let run model batch layers =
    match find_full model with
    | None ->
        exit_err
          (Printf.sprintf "unknown benchmark model %S (try: %s)" model
             (String.concat ", " (List.map fst full_models)))
    | Some net ->
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
    Term.(const run $ model_pos $ batch $ layers)

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
  let samples = positive "samples" 20 ~doc:"Samples per programming." in
  let run bits sigma samples =
    (match
       Config.validate
         { Config.default with bits_per_cell = bits; write_noise_sigma = sigma }
     with
    | Ok _ -> ()
    | Error e ->
        exit_err (Printf.sprintf "--bits %d --sigma %g: %s" bits sigma e));
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
