(* The batched-inference runtime: worker pool and the serial-vs-sharded
   differential guarantee every later performance PR regresses against. *)

module B = Puma_graph.Builder
module Tensor = Puma_util.Tensor
module Rng = Puma_util.Rng
module Pool = Puma_util.Pool
module Config = Puma_hwmodel.Config
module Compile = Puma_compiler.Compile
module Node = Puma_sim.Node
module Energy = Puma_hwmodel.Energy
module Batch = Puma_runtime.Batch
module Engine = Puma_serve.Engine
module Cluster = Puma_cluster.Cluster

(* ---- Pool ---- *)

let test_pool_covers_range () =
  List.iter
    (fun (domains, chunk, n) ->
      let visits = Array.make n 0 in
      Pool.parallel_for ~domains ~chunk ~n (fun i ->
          visits.(i) <- visits.(i) + 1);
      Alcotest.(check (array int))
        (Printf.sprintf "each index once (d=%d c=%d n=%d)" domains chunk n)
        (Array.make n 1) visits)
    [ (1, 1, 17); (2, 3, 100); (4, 1, 5); (8, 16, 3); (3, 5, 0) ]

let test_pool_map_init () =
  let squares = Pool.map_init ~domains:4 ~n:50 ~init:(fun ~worker:_ -> ()) (fun () i -> i * i) in
  Alcotest.(check (array int)) "map" (Array.init 50 (fun i -> i * i)) squares;
  (* Worker state is built per worker and threaded into every call. *)
  let stamped =
    Pool.map_init ~domains:3 ~n:20
      ~init:(fun ~worker -> worker)
      (fun w i -> (w, i))
  in
  Array.iteri
    (fun i (w, j) ->
      Alcotest.(check int) "index" i j;
      Alcotest.(check bool) "worker id in range" true (w >= 0 && w < 3))
    stamped;
  Alcotest.(check (array int)) "empty range" [||]
    (Pool.map_init ~domains:4 ~n:0 ~init:(fun ~worker:_ -> ()) (fun () i -> i))

let test_pool_propagates_exception () =
  Alcotest.(check bool) "exception reraised" true
    (try
       Pool.parallel_for ~domains:2 ~n:100 (fun i ->
           if i = 42 then failwith "boom");
       false
     with Failure msg -> msg = "boom")

(* ---- Batched runtime ---- *)

let config =
  {
    Config.default with
    mvmu_dim = 32;
    mvmus_per_core = 2;
    cores_per_tile = 2;
    tiles_per_node = 64;
    vfu_width = 4;
  }

let small_mlp () =
  let rng = Rng.create 21 in
  let m = B.create "batch-mlp" in
  let x = B.input m ~name:"x" ~len:48 in
  let w1 = B.const_matrix m ~name:"W1" (Tensor.mat_rand rng 40 48 0.1) in
  let w2 = B.const_matrix m ~name:"W2" (Tensor.mat_rand rng 12 40 0.1) in
  B.output m ~name:"y" (B.sigmoid m (B.mvm m w2 (B.relu m (B.mvm m w1 x))));
  B.finish m

let compiled = lazy ((Compile.compile config (small_mlp ())).Compile.program)

let test_requests_deterministic () =
  let program = Lazy.force compiled in
  let a = Batch.random_requests program ~batch:4 ~seed:9 in
  let b = Batch.random_requests program ~batch:4 ~seed:9 in
  Alcotest.(check bool) "same seed, same requests" true (a = b);
  let c = Batch.random_requests program ~batch:4 ~seed:10 in
  Alcotest.(check bool) "different seed differs" true (a <> c);
  (* A request's inputs depend on its index, not on the batch size. *)
  let big = Batch.random_requests program ~batch:8 ~seed:9 in
  List.iteri
    (fun i (r : Batch.request) ->
      Alcotest.(check bool) "prefix stable" true
        (r.inputs = (List.nth big i).Batch.inputs))
    a

(* Serial reference: one machine, one warm-up inference (the runtime's
   documented steady-state guarantee), then every request in order. One
   node, or a cluster of [nodes] chips. *)
let serial_reference ~nodes program requests =
  let run, cycles, energy_pj =
    if nodes = 1 then
      let node = Node.create program in
      ( (fun inputs -> Node.run node ~inputs),
        (fun () -> Node.cycles node),
        fun () -> Energy.total_pj (Node.energy node) )
    else
      let cl = Cluster.create ~nodes program in
      ( (fun inputs -> Cluster.run cl ~inputs),
        (fun () -> Cluster.cycles cl),
        fun () -> Cluster.dynamic_energy_pj cl )
  in
  ignore
    (run
       (List.map
          (fun (name, len) -> (name, Array.make len 0.0))
          (Batch.input_lengths program)));
  List.map
    (fun (r : Batch.request) ->
      let c0 = cycles () and e0 = energy_pj () in
      let outputs = run r.inputs in
      (outputs, cycles () - c0, energy_pj () -. e0))
    requests

(* The differential anchor: a batch run through the runtime with 1, 2 and
   4 domains must be bit-identical — outputs, per-request cycles, dynamic
   energy — to a serial warmed Puma_sim.Node run, and on a 2-chip cluster
   to a serial warmed Puma_cluster.Cluster run. *)
let test_differential_serial_vs_sharded () =
  let program = Lazy.force compiled in
  let batch = 8 in
  let requests = Batch.random_requests program ~batch ~seed:3 in
  List.iter
    (fun nodes ->
      let reference = serial_reference ~nodes program requests in
      List.iter
        (fun domains ->
          let responses, _ =
            Batch.run ~domains ~cluster_nodes:nodes program requests
          in
          let label i what =
            Printf.sprintf "request %d %s (nodes=%d domains=%d)" i what nodes
              domains
          in
          Alcotest.(check int) "batch size" batch (Array.length responses);
          List.iteri
            (fun i (outputs, cycles, energy) ->
              let r = responses.(i) in
              Alcotest.(check int) (label i "index") i r.Batch.index;
              List.iter
                (fun (name, want) ->
                  let got = List.assoc name r.Batch.outputs in
                  Alcotest.(check bool)
                    (label i ("output " ^ name ^ " bit-identical"))
                    true (want = got))
                outputs;
              Alcotest.(check int) (label i "cycles") cycles r.Batch.cycles;
              Alcotest.(check (float 1e-9))
                (label i "dynamic energy") energy r.Batch.dynamic_energy_pj)
            reference)
        [ 1; 2; 4 ])
    [ 1; 2 ]

(* A batch's fleet metrics come from the serving engine: its responses
   scheduled as one burst on 1 and on 4 simulated nodes. *)
let test_batch_throughput_scales () =
  let program = Lazy.force compiled in
  let requests = Batch.random_requests program ~batch:8 ~seed:3 in
  let responses, _ = Batch.run ~domains:1 program requests in
  let model = Engine.model ~name:"mlp" program in
  let r1 = Engine.burst ~nodes:1 model responses in
  let r4 = Engine.burst ~nodes:4 model responses in
  let throughput (r : Engine.report) = r.models.(0).throughput_rps in
  let serial_cycles =
    Array.fold_left (fun acc (r : Batch.response) -> acc + r.cycles) 0 responses
  in
  Alcotest.(check int) "serial makespan is the request sum" serial_cycles
    r1.makespan_cycles;
  Alcotest.(check bool)
    (Printf.sprintf "4-node simulated throughput > 1.8x (got %.2fx)"
       (throughput r4 /. throughput r1))
    true
    (throughput r4 > 1.8 *. throughput r1);
  Alcotest.(check bool) "speedup consistent" true
    (Float.abs
       ((throughput r4 /. throughput r1)
       -. Float.of_int serial_cycles /. Float.of_int r4.makespan_cycles)
    < 1e-9);
  let cycles =
    Array.map (fun (r : Batch.response) -> Float.of_int r.cycles) responses
  in
  Alcotest.(check bool) "percentiles ordered" true
    (Puma_util.Stats.percentile cycles 50.0
    <= Puma_util.Stats.percentile cycles 95.0);
  Alcotest.(check bool) "energy positive" true (r4.total_energy_uj > 0.0);
  Alcotest.(check bool) "static grows with nodes" true
    (r4.static_energy_uj > 0.0
    && r1.dynamic_energy_uj = r4.dynamic_energy_uj)

let test_noise_seeded_nodes_agree () =
  (* With write noise enabled, every worker's crossbars must be programmed
     identically (same noise_seed), or sharded outputs would drift. *)
  let noisy = { config with write_noise_sigma = 0.05 } in
  let program = (Compile.compile noisy (small_mlp ())).Compile.program in
  let requests = Batch.random_requests program ~batch:6 ~seed:5 in
  let run domains =
    let responses, _ = Batch.run ~domains ~noise_seed:11 program requests in
    Array.map (fun (r : Batch.response) -> r.Batch.outputs) responses
  in
  let serial = run 1 in
  List.iter
    (fun domains ->
      Alcotest.(check bool)
        (Printf.sprintf "noisy outputs bit-identical (domains=%d)" domains)
        true
        (serial = run domains))
    [ 2; 4 ]

let test_empty_batch () =
  let program = Lazy.force compiled in
  let responses, _ = Batch.run ~domains:4 program [] in
  Alcotest.(check int) "no responses" 0 (Array.length responses);
  let report =
    Engine.burst ~nodes:4 (Engine.model ~name:"mlp" program) responses
  in
  Alcotest.(check int) "no cycles" 0 report.makespan_cycles;
  Alcotest.(check (float 0.0)) "no throughput" 0.0
    report.models.(0).throughput_rps

(* A fault plan belongs to one chip: a machine takes one slot per chip. *)
let test_cluster_rejects_single_plan () =
  let program = Lazy.force compiled in
  let plan =
    Puma_xbar.Fault.plan ~seed:1
      { Puma_xbar.Fault.ideal with stuck_rate = 1e-3 }
  in
  let raises ~nodes faults =
    match Batch.warmed_node ~faults ~nodes program with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  Alcotest.(check bool) "one plan for two chips raises" true
    (raises ~nodes:2 [| Some plan |]);
  Alcotest.(check bool) "two plans for one chip raise" true
    (raises ~nodes:1 [| Some plan; None |]);
  Alcotest.(check bool) "one slot per chip is accepted" false
    (raises ~nodes:2 [| Some plan; None |])

let () =
  Alcotest.run "runtime"
    [
      ( "pool",
        [
          Alcotest.test_case "covers range" `Quick test_pool_covers_range;
          Alcotest.test_case "map with worker state" `Quick test_pool_map_init;
          Alcotest.test_case "exception propagation" `Quick
            test_pool_propagates_exception;
        ] );
      ( "batch",
        [
          Alcotest.test_case "deterministic requests" `Quick
            test_requests_deterministic;
          Alcotest.test_case "differential serial vs 1/2/4 domains" `Quick
            test_differential_serial_vs_sharded;
          Alcotest.test_case "throughput scales" `Quick
            test_batch_throughput_scales;
          Alcotest.test_case "noise-seeded nodes agree" `Quick
            test_noise_seeded_nodes_agree;
          Alcotest.test_case "empty batch" `Quick test_empty_batch;
          Alcotest.test_case "cluster rejects a one-chip fault plan" `Quick
            test_cluster_rejects_single_plan;
        ] );
    ]
