(* Differential suite for the multi-node cluster tier (docs/SCALEOUT.md).

   The load-bearing contract: a cluster with a zero-cost fabric must be
   bit-identical — outputs, cycles, energy event counts — to one
   monolithic node running the unsplit program, for every zoo model and
   any node count. On top of that, real-cost clusters (pipelined and
   sharded compiles, random graphs, random node counts) must still
   compute the exact single-node outputs: partitioning may move work
   between chips but never change the fixed-point dataflow. *)

module Config = Puma_hwmodel.Config
module Energy = Puma_hwmodel.Energy
module Fabric = Puma_noc.Fabric
module Offchip = Puma_noc.Offchip
module Compile = Puma_compiler.Compile
module Partition = Puma_compiler.Partition
module Node = Puma_sim.Node
module Cluster = Puma_cluster.Cluster
module Analyze = Puma_analysis.Analyze
module Models = Puma_nn.Models
module Nn = Puma_nn.Network
module Layer = Puma_nn.Layer
module Program = Puma_isa.Program
module Rng = Puma_util.Rng

let config_of_dim dim = { Config.sweetspot with Config.mvmu_dim = dim }

(* Gate off: lenet5 overflows instruction memory at every dim (documented
   E-IMEM); the validator is exercised by its own suite and slows the
   zoo sweep down. *)
let quick_options =
  { Compile.default_options with analysis_gate = false; check_equiv = false }

let compile ?cluster ?(dim = 64) g =
  let options = { quick_options with cluster } in
  (Compile.compile ~options (config_of_dim dim) g).Compile.program

(* Deterministic inputs covering every input binding of a program. *)
let inputs_for ?(seed = 17) (program : Program.t) =
  let rng = Rng.create seed in
  let lengths = Hashtbl.create 4 in
  List.iter
    (fun (b : Program.io_binding) ->
      let prev = Option.value ~default:0 (Hashtbl.find_opt lengths b.name) in
      Hashtbl.replace lengths b.name (max prev (b.offset + b.length)))
    program.Program.inputs;
  Hashtbl.fold
    (fun name len acc ->
      (name, Array.init len (fun _ -> Rng.uniform rng (-1.0) 1.0)) :: acc)
    lengths []

let sorted_outputs outs =
  List.sort (fun (a, _) (b, _) -> compare a b) outs

let check_same_outputs label expected actual =
  let expected = sorted_outputs expected and actual = sorted_outputs actual in
  Alcotest.(check (list string))
    (label ^ ": output names")
    (List.map fst expected) (List.map fst actual);
  List.iter2
    (fun (name, e) (_, a) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: output %s bit-identical" label name)
        true (e = a))
    expected actual

let energy_count_list energy =
  List.map (fun c -> Energy.count energy c) Energy.all_categories

let zoo =
  [
    ("mlp", `Net Models.mini_mlp);
    ("lstm", `Net Models.mini_lstm);
    ("rnn", `Net Models.mini_rnn);
    ("lenet5", `Net Models.lenet5);
    ("bm", `Graph Models.mini_bm);
    ("rbm", `Graph Models.mini_rbm);
  ]

let graph_of = function
  | `Net n -> Nn.build_graph n
  | `Graph g -> g

(* --- zero-cost differential: 1 vs 2 vs 4 nodes, whole zoo ------------ *)

let test_zero_cost_differential () =
  List.iter
    (fun (name, model) ->
      let program = compile (graph_of model) in
      let inputs = inputs_for program in
      let reference = Node.create program in
      let ref_out = Node.run_reference reference ~inputs in
      let ref_cycles = Node.cycles reference in
      let ref_counts = energy_count_list (Node.energy reference) in
      List.iter
        (fun nodes ->
          let label = Printf.sprintf "%s @ %d nodes" name nodes in
          let cl = Cluster.create ~nodes ~zero_cost:true program in
          let out = Cluster.run cl ~inputs in
          check_same_outputs label ref_out out;
          Alcotest.(check int) (label ^ ": cycles") ref_cycles
            (Cluster.cycles cl);
          Alcotest.(check (list int))
            (label ^ ": energy event counts")
            ref_counts
            (List.map snd (Cluster.energy_counts cl)))
        [ 1; 2; 4 ])
    zoo

(* Back-to-back inferences share state exactly like a monolithic node
   (registers and memory persist, clocks accumulate). *)
let test_zero_cost_multiple_inferences () =
  let program = compile (graph_of (List.assoc "lstm" zoo)) in
  let i1 = inputs_for ~seed:3 program and i2 = inputs_for ~seed:4 program in
  let reference = Node.create program in
  let r1 = Node.run_reference reference ~inputs:i1 in
  let r2 = Node.run_reference reference ~inputs:i2 in
  let cl = Cluster.create ~nodes:2 ~zero_cost:true program in
  let c1 = Cluster.run cl ~inputs:i1 in
  let c2 = Cluster.run cl ~inputs:i2 in
  check_same_outputs "run 1" r1 c1;
  check_same_outputs "run 2" r2 c2;
  Alcotest.(check int) "accumulated cycles" (Node.cycles reference)
    (Cluster.cycles cl);
  Alcotest.(check (list int))
    "accumulated energy counts"
    (energy_count_list (Node.energy reference))
    (List.map snd (Cluster.energy_counts cl))

(* --- real-cost cluster compiles: outputs exact, traffic real --------- *)

let test_cluster_schemes_end_to_end () =
  let g = graph_of (`Net Models.mini_mlp) in
  let single = compile g in
  let single_node = Node.create single in
  let inputs = inputs_for single in
  let ref_out = Node.run_reference single_node ~inputs in
  List.iter
    (fun scheme ->
      let program =
        compile ~cluster:{ Partition.nodes = 2; scheme } g
      in
      let cl = Cluster.create ~nodes:2 program in
      let out = Cluster.run cl ~inputs in
      check_same_outputs (Partition.scheme_name scheme) ref_out out;
      Alcotest.(check bool)
        (Partition.scheme_name scheme ^ ": cross-node words flowed")
        true
        (Cluster.offchip_words cl > 0))
    [ Partition.Pipelined; Partition.Sharded ]

let test_cluster_edge_stats () =
  let g = graph_of (`Net Models.mini_mlp) in
  let config = config_of_dim 64 in
  let options =
    {
      quick_options with
      Compile.cluster = Some { Partition.nodes = 2; scheme = Pipelined };
    }
  in
  let r = Compile.compile ~options config g in
  Alcotest.(check int) "nodes_used" 2 r.Compile.nodes_used;
  Alcotest.(check bool) "cross_node edges" true (r.Compile.edge_stats.cross_node > 0);
  Alcotest.(check bool)
    "cross_node <= cross_tile" true
    (r.Compile.edge_stats.cross_node <= r.Compile.edge_stats.cross_tile);
  Alcotest.(check int)
    "padded to nodes * stride"
    (r.Compile.nodes_used * r.Compile.tiles_per_node)
    (Array.length r.Compile.program.Program.tiles)

(* --- per-node static gates ------------------------------------------- *)

let test_analyze_shards () =
  let g = graph_of (`Net Models.mini_mlp) in
  let program = compile ~cluster:{ Partition.nodes = 2; scheme = Pipelined } g in
  let reports = Cluster.analyze_shards ~nodes:2 program in
  Alcotest.(check int) "one report per node" 2 (List.length reports);
  List.iter
    (fun (r : Cluster.shard_report) ->
      if r.cross_out = 0 && r.cross_in = 0 then
        Alcotest.(check bool)
          (Printf.sprintf "node %d: closed shard passes full gate" r.node)
          false
          (Analyze.has_errors r.report)
      else
        Alcotest.(check bool)
          (Printf.sprintf "node %d: open shard reports W-XNODE" r.node)
          true
          (List.exists
             (fun (d : Puma_analysis.Diag.t) -> d.code = "W-XNODE")
             r.report.Analyze.diags))
    reports;
  (* At least one shard of a 2-node pipelined MLP must have cross-node
     channels, or the split was degenerate. *)
  Alcotest.(check bool)
    "cut channels exist" true
    (List.exists
       (fun (r : Cluster.shard_report) -> r.cross_out + r.cross_in > 0)
       reports)

(* A single-node "cluster" is channel-closed and passes the full gates. *)
let test_analyze_shards_single_node () =
  let program = compile (graph_of (`Net Models.mini_mlp)) in
  match Cluster.analyze_shards ~nodes:1 program with
  | [ r ] ->
      Alcotest.(check int) "no cross channels" 0 (r.cross_out + r.cross_in);
      Alcotest.(check bool) "full gate clean" false
        (Analyze.has_errors r.report)
  | rs -> Alcotest.failf "expected 1 report, got %d" (List.length rs)

(* --- node faults stay node-local ------------------------------------- *)

let test_node_faults_are_per_node () =
  let g = graph_of (`Net Models.mini_mlp) in
  let program = compile ~cluster:{ Partition.nodes = 2; scheme = Pipelined } g in
  let inputs = inputs_for program in
  let clean = Cluster.create ~nodes:2 program in
  let clean_out = Cluster.run clean ~inputs in
  let plan =
    Puma_xbar.Fault.plan ~seed:5
      { Puma_xbar.Fault.ideal with stuck_rate = 0.3; stuck_on_fraction = 0.5 }
  in
  let faulty k =
    let plans = Array.make 2 None in
    plans.(k) <- Some plan;
    let cl = Cluster.create ~nodes:2 ~faults:plans program in
    Cluster.run cl ~inputs
  in
  let out0 = faulty 0 and out1 = faulty 1 in
  (* A heavy stuck-at plan on either node must perturb the output, and
     the two single-node injections must differ from each other (the
     faults landed on different chips). *)
  Alcotest.(check bool) "node 0 faults perturb" true (out0 <> clean_out);
  Alcotest.(check bool) "node 1 faults perturb" true (out1 <> clean_out);
  Alcotest.(check bool) "different nodes, different damage" true (out0 <> out1)

let test_program_images_never_mutated () =
  (* Nodes, batch domains and chips share the program's crossbar images
     instead of copying them, so none of them may write through: after
     building each kind and running inferences the program must still
     serialize to the same bytes. *)
  let g = graph_of (`Net Models.mini_mlp) in
  let program = compile ~cluster:{ Partition.nodes = 2; scheme = Pipelined } g in
  let digest () = Digest.to_hex (Digest.bytes (Puma_isa.Program_io.to_bytes program)) in
  let before = digest () in
  let inputs = inputs_for program in
  let infer run =
    for _ = 1 to 3 do
      ignore (run ~inputs)
    done
  in
  let noisy =
    {
      program with
      Program.config =
        { program.Program.config with Config.write_noise_sigma = 0.05 };
    }
  in
  let model =
    { Puma_xbar.Fault.ideal with stuck_rate = 0.05; stuck_on_fraction = 0.5 }
  in
  let remap = Puma_fault.Remap.build ~model ~seed:3 program in
  List.iter
    (fun node -> infer (Node.run node))
    [
      Node.create program;
      Node.create noisy;
      Node.create ~faults:(Puma_xbar.Fault.plan ~seed:5 model) program;
      Node.create ~faults:remap.Puma_fault.Remap.plan program;
    ];
  infer (Cluster.run (Cluster.create ~nodes:2 program));
  ignore
    (Puma_runtime.Batch.run ~domains:2 program
       (Puma_runtime.Batch.random_requests program ~batch:4 ~seed:1));
  Alcotest.(check string) "program bytes unchanged" before (digest ())

(* --- qcheck: random graphs, random node counts ----------------------- *)

let qcheck_count = 8

let random_net_gen =
  QCheck.Gen.(
    let* is_rnn = bool in
    if is_rnn then
      let* input = int_range 6 24 in
      let* hidden = int_range 6 24 in
      let* seq_len = int_range 2 3 in
      return
        (Nn.make ~name:"qrnn" ~kind:Nn.Rnn_net ~input:(Layer.Vec input)
           ~seq_len
           [ Layer.Rnn { hidden }; Layer.Dense { out = 8; act = Layer.Sigmoid } ])
    else
      let* input = int_range 6 32 in
      let* w1 = int_range 6 32 in
      let* w2 = int_range 4 16 in
      return
        (Nn.make ~name:"qmlp" ~kind:Nn.Mlp ~input:(Layer.Vec input)
           [
             Layer.Dense { out = w1; act = Layer.Relu };
             Layer.Dense { out = w2; act = Layer.Sigmoid };
           ]))

let random_cluster_gen =
  QCheck.Gen.(
    let* net = random_net_gen in
    let* nodes = int_range 1 4 in
    let* scheme = oneofl [ Partition.Pipelined; Partition.Sharded ] in
    let* topology =
      oneofl [ Fabric.Ring; Fabric.Mesh2d; Fabric.All_to_all ]
    in
    let* seed = int_range 0 1000 in
    return (net, nodes, scheme, topology, seed))

let qcheck_cluster_matches_single =
  QCheck.Test.make ~count:qcheck_count
    ~name:"random graph across random nodes matches single-node outputs"
    (QCheck.make random_cluster_gen)
    (fun (net, nodes, scheme, topology, seed) ->
      let g = Nn.build_graph ~seed:(2024 + seed) net in
      let single = compile ~dim:16 g in
      let inputs = inputs_for ~seed single in
      let reference = Node.create single in
      let ref_out = sorted_outputs (Node.run_reference reference ~inputs) in
      let program = compile ~dim:16 ~cluster:{ Partition.nodes; scheme } g in
      let cl = Cluster.create ~nodes ~topology program in
      let out = sorted_outputs (Cluster.run cl ~inputs) in
      ref_out = out)

(* --- fast vs reference loop under real link costs -------------------- *)

(* Everything a cluster exposes after two back-to-back inferences on one
   loop ([Node.run] or [Node.run_reference] on its node), and which loop
   the last one took. *)
let observe ?faults run ~nodes ~topology program =
  let cl = Cluster.create ~nodes ~topology ?faults program in
  let outs =
    List.map
      (fun seed ->
        sorted_outputs
          (run (Cluster.node cl) ~inputs:(inputs_for ~seed program)))
      [ 3; 4 ]
  in
  ( Node.last_run_fast (Cluster.node cl),
    ( outs,
      Cluster.cycles cl,
      List.map snd (Cluster.energy_counts cl),
      Cluster.offchip_words cl ) )

let check_fast_matches_reference ?faults label ~nodes ~topology program =
  let fast_taken, (outs, cycles, counts, words) =
    observe ?faults Node.run ~nodes ~topology program
  in
  let ref_taken, (ref_outs, ref_cycles, ref_counts, ref_words) =
    observe ?faults Node.run_reference ~nodes ~topology program
  in
  Alcotest.(check bool) (label ^ ": fast loop taken") true fast_taken;
  Alcotest.(check bool) (label ^ ": reference loop taken") false ref_taken;
  List.iter2 (check_same_outputs label) ref_outs outs;
  Alcotest.(check int) (label ^ ": cycles") ref_cycles cycles;
  Alcotest.(check (list int))
    (label ^ ": energy event counts")
    ref_counts counts;
  Alcotest.(check int) (label ^ ": off-chip words") ref_words words

let compile_cluster ?(dim = 64) ~nodes ~scheme g =
  let options =
    { quick_options with Compile.cluster = Some { Partition.nodes; scheme } }
  in
  let r = Compile.compile ~options (config_of_dim dim) g in
  (r.Compile.program, r.Compile.nodes_used)

(* Each scheme meets both node counts and both topologies. *)
let test_fast_vs_reference_zoo () =
  List.iter
    (fun (name, model) ->
      let g = graph_of model in
      List.iter
        (fun (scheme, nodes, topology) ->
          let program, used = compile_cluster ~nodes ~scheme g in
          let label =
            Printf.sprintf "%s %s @ %d/%d nodes on %s" name
              (Partition.scheme_name scheme) used nodes
              (Fabric.topology_name topology)
          in
          check_fast_matches_reference label ~nodes:used ~topology program)
        [
          (Partition.Pipelined, 2, Fabric.Mesh2d);
          (Partition.Sharded, 2, Fabric.Ring);
          (Partition.Pipelined, 4, Fabric.Ring);
          (Partition.Sharded, 4, Fabric.Mesh2d);
        ])
    zoo

let test_fast_vs_reference_faults () =
  let g = graph_of (`Net Models.mini_lstm) in
  let program, nodes = compile_cluster ~nodes:2 ~scheme:Pipelined g in
  let plan seed =
    Some
      (Puma_xbar.Fault.plan ~seed
         {
           Puma_xbar.Fault.ideal with
           stuck_rate = 0.05;
           stuck_on_fraction = 0.5;
         })
  in
  check_fast_matches_reference "lstm with per-node faults"
    ~faults:(Array.init nodes (fun k -> plan (11 + k)))
    ~nodes ~topology:Fabric.Mesh2d program

let qcheck_fast_matches_reference =
  QCheck.Test.make ~count:qcheck_count
    ~name:"random graph cluster: fast loop matches reference loop"
    (QCheck.make
       QCheck.Gen.(
         let* net = random_net_gen in
         let* nodes = oneofl [ 2; 4 ] in
         let* scheme = oneofl [ Partition.Pipelined; Partition.Sharded ] in
         let* topology = oneofl [ Fabric.Mesh2d; Fabric.Ring ] in
         let* seed = int_range 0 1000 in
         return (net, nodes, scheme, topology, seed)))
    (fun (net, nodes, scheme, topology, seed) ->
      let g = Nn.build_graph ~seed:(2024 + seed) net in
      let program, nodes = compile_cluster ~dim:16 ~nodes ~scheme g in
      let fast_taken, fast = observe Node.run ~nodes ~topology program in
      let ref_taken, reference =
        observe Node.run_reference ~nodes ~topology program
      in
      fast_taken && (not ref_taken) && fast = reference)

(* --- deadlock diagnostic names the chip ------------------------------ *)

(* Drop the last send on the first cross-node channel: its receiver
   waits forever, and both loops must report the same dump, naming the
   receiving node. *)
let test_deadlock_names_node () =
  let g = graph_of (`Net Models.mini_mlp) in
  let program, nodes = compile_cluster ~nodes:2 ~scheme:Pipelined g in
  let stride = Array.length program.Program.tiles / nodes in
  let cross (tp : Program.tile_program) (i : Puma_isa.Instr.t) =
    match i with
    | Send { target; fifo_id; _ } when target / stride <> tp.tile_index / stride
      ->
        Some (target, fifo_id)
    | _ -> None
  in
  let src, (target, fifo) =
    match
      Array.find_map
        (fun (tp : Program.tile_program) ->
          Option.map
            (fun chan -> (tp.tile_index, chan))
            (Array.find_map (cross tp) tp.tile_code))
        program.Program.tiles
    with
    | Some found -> found
    | None -> Alcotest.fail "no cross-node send to drop"
  in
  let tiles =
    Array.map
      (fun (tp : Program.tile_program) ->
        if tp.tile_index <> src then tp
        else
          let code = Array.to_list tp.tile_code in
          let last =
            List.fold_left max (-1)
              (List.mapi
                 (fun k i -> if cross tp i = Some (target, fifo) then k else -1)
                 code)
          in
          {
            tp with
            Program.tile_code =
              Array.of_list (List.filteri (fun k _ -> k <> last) code);
          })
      program.Program.tiles
  in
  let broken = { program with Program.tiles } in
  let dump run =
    let cl = Cluster.create ~nodes broken in
    match run (Cluster.node cl) ~inputs:(inputs_for broken) with
    | _ -> Alcotest.fail "expected Node.Deadlock"
    | exception Node.Deadlock msg -> msg
  in
  let fast = dump Node.run and reference = dump Node.run_reference in
  Alcotest.(check string) "same dump on both loops" reference fast;
  let line =
    Printf.sprintf "  node %d tile %d tcu pc" (target / stride) target
  in
  Alcotest.(check bool)
    (Printf.sprintf "dump names the receiver (%S)" line)
    true
    (List.exists
       (String.starts_with ~prefix:line)
       (String.split_on_char '\n' fast))

(* --- fabric pins the Offchip estimator ------------------------------- *)

let test_fabric_pins_offchip () =
  let config = config_of_dim 64 in
  let fabric =
    Fabric.create ~topology:Fabric.Ring ~nodes:4 ~tiles_per_node:8 ()
  in
  (* Tiles 0 and 8 sit on adjacent ring nodes: exactly one fabric hop,
     which must cost exactly what the analytical estimator charges and
     one ledger [Offchip] event per word. *)
  List.iter
    (fun words ->
      Alcotest.(check int)
        (Printf.sprintf "one hop = estimator cycles (%d words)" words)
        (Offchip.transfer_cycles config ~words)
        (Fabric.transfer_cycles fabric config ~src:0 ~dst:8 ~words);
      let energy = Energy.create config in
      let net = Puma_noc.Network.create ~fabric config ~energy ~num_tiles:32 in
      Puma_noc.Network.send net ~now:0
        {
          Puma_noc.Network.src_tile = 0;
          dst_tile = 8;
          fifo_id = 0;
          payload = Array.make words 1;
        };
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "one hop = ledger energy (%d words)" words)
        (Float.of_int words *. Energy.per_event_pj config Energy.Offchip)
        (Energy.energy_pj energy Energy.Offchip))
    [ 1; 2; 64; 1000 ]

let () =
  Alcotest.run "cluster"
    [
      ( "differential",
        [
          Alcotest.test_case "zoo 1-vs-2-vs-4 zero-cost bit-identity" `Quick
            test_zero_cost_differential;
          Alcotest.test_case "multiple inferences accumulate" `Quick
            test_zero_cost_multiple_inferences;
        ] );
      ( "schemes",
        [
          Alcotest.test_case "pipelined and sharded exact end-to-end" `Quick
            test_cluster_schemes_end_to_end;
          Alcotest.test_case "cluster compile stats" `Quick
            test_cluster_edge_stats;
        ] );
      ( "gates",
        [
          Alcotest.test_case "per-shard analysis" `Quick test_analyze_shards;
          Alcotest.test_case "single shard full gate" `Quick
            test_analyze_shards_single_node;
        ] );
      ( "faults",
        [
          Alcotest.test_case "program images never mutated" `Quick
            test_program_images_never_mutated;
          Alcotest.test_case "per-node fault plans stay local" `Quick
            test_node_faults_are_per_node;
        ] );
      ( "qcheck",
        [ QCheck_alcotest.to_alcotest qcheck_cluster_matches_single ] );
      ( "loops",
        [
          Alcotest.test_case "zoo fast vs reference under link costs" `Quick
            test_fast_vs_reference_zoo;
          Alcotest.test_case "per-node faults fast vs reference" `Quick
            test_fast_vs_reference_faults;
          QCheck_alcotest.to_alcotest qcheck_fast_matches_reference;
          Alcotest.test_case "deadlock dump names the node" `Quick
            test_deadlock_names_node;
        ] );
      ( "fabric",
        [
          Alcotest.test_case "one hop pins the Offchip estimator" `Quick
            test_fabric_pins_offchip;
        ] );
    ]
