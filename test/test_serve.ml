(* The multi-tenant serving runtime: the differential anchor against the
   batched runtime (serve outputs must be bit-identical to Batch.run),
   the record/replay roundtrip, and the qcheck invariants of the pure
   virtual-clock event loop (conservation, monotonicity, FIFO). *)

module Config = Puma_hwmodel.Config
module Compile = Puma_compiler.Compile
module Models = Puma_nn.Models
module Network = Puma_nn.Network
module Batch = Puma_runtime.Batch
module Engine = Puma_serve.Engine
module Arrival = Puma_serve.Arrival
module Trace = Puma_serve.Trace
module Json = Puma_util.Json

let config64 = { Config.sweetspot with mvmu_dim = 64 }

let compile_net net =
  (Compile.compile config64 (Network.build_graph net)).Compile.program

(* Three co-resident zoo models, compiled once for the whole suite. *)
let fleet =
  lazy
    [|
      Engine.model ~name:"mlp" (compile_net Models.mini_mlp);
      Engine.model ~name:"lstm" (compile_net Models.mini_lstm);
      Engine.model ~name:"rnn" (compile_net Models.mini_rnn);
    |]

let serve_config = { Engine.nodes = 2; max_batch = 2; input_seed = 7 }

let workload =
  lazy
    (Engine.synthesize ~models:3
       (Arrival.Poisson { rate_rps = 3000.0 })
       ~seed:5 ~duration_s:0.004 ~frequency_ghz:1.0)

(* ---- Differential vs the batched runtime ---- *)

(* Every served request's outputs, cycle cost and dynamic energy must be
   bit-identical to running the same model's request stream through
   Batch.run — the serving fleet is the batch runtime's warmed-node
   computation under a scheduler, nothing more. That holds with every
   fleet slot a single node and with every slot a 2-chip cluster. *)
let test_differential_vs_batch () =
  let fleet = Lazy.force fleet and workload = Lazy.force workload in
  Alcotest.(check bool) "workload non-trivial" true (Array.length workload > 6);
  List.iter
    (fun cluster_nodes ->
      let report =
        Engine.run ~domains:1 ?cluster_nodes serve_config fleet workload
      in
      Alcotest.(check int)
        "all arrivals served (unbounded queues)"
        (Array.length workload)
        (Array.length report.Engine.served);
      Array.iteri
        (fun m (model : Engine.model) ->
          let requests = Engine.requests_for serve_config fleet workload m in
          let responses, _ =
            Batch.run ~domains:1 ?cluster_nodes model.Engine.program requests
          in
          let served =
            Array.to_list report.Engine.served
            |> List.filter (fun (s : Engine.served) -> s.Engine.model = m)
          in
          let label what (s : Engine.served) =
            Printf.sprintf "model %d request %d %s (cluster nodes %d)" m
              s.Engine.model_request what
              (Option.value cluster_nodes ~default:1)
          in
          Alcotest.(check int)
            (Printf.sprintf "model %d request count" m)
            (List.length requests) (List.length served);
          List.iter
            (fun (s : Engine.served) ->
              let r = responses.(s.Engine.model_request) in
              Alcotest.(check bool)
                (label "outputs bit-identical" s)
                true
                (s.Engine.outputs = r.Batch.outputs);
              Alcotest.(check int) (label "cycles" s) r.Batch.cycles
                s.Engine.cycles;
              Alcotest.(check bool) (label "energy exact" s) true
                (s.Engine.energy_pj = r.Batch.dynamic_energy_pj))
            served)
        fleet)
    [ None; Some 2 ]

(* The report is a pure function of the workload: the host domain count
   must not leak into any field, on single-node and on 2-chip fleet slots
   alike. *)
let test_domain_count_independent () =
  let fleet = Lazy.force fleet and workload = Lazy.force workload in
  List.iter
    (fun cluster_nodes ->
      let run domains =
        Engine.run ~domains ?cluster_nodes serve_config fleet workload
      in
      let reference = run 1 in
      let label what =
        Printf.sprintf "report bit-identical (%s, cluster nodes %d)" what
          (Option.value cluster_nodes ~default:1)
      in
      List.iter
        (fun domains ->
          Alcotest.(check bool)
            (label (Printf.sprintf "domains=%d" domains))
            true
            (run domains = reference))
        [ 2; 4 ])
    [ None; Some 2 ]

let test_zero_load_drain () =
  let fleet = Lazy.force fleet in
  let report = Engine.run ~domains:2 serve_config fleet [||] in
  Alcotest.(check int) "no arrivals" 0 report.Engine.arrivals;
  Alcotest.(check int) "no served" 0 (Array.length report.Engine.served);
  Alcotest.(check int) "no rejections" 0 (Array.length report.Engine.rejections);
  Alcotest.(check int) "zero makespan" 0 report.Engine.makespan_cycles;
  Alcotest.(check int) "no events" 0 (Array.length report.Engine.event_cycles);
  Alcotest.(check (float 0.0)) "no energy" 0.0 report.Engine.total_energy_uj

(* ---- Record / replay ---- *)

(* A tight fleet (one node, batches of one, queues of one) so the run
   rejects arrivals too; recorded once for the replay tests. *)
let recorded =
  lazy
    (let tight =
       Array.map
         (fun (m : Engine.model) -> { m with Engine.queue_limit = 1 })
         (Lazy.force fleet)
     in
     let config = { Engine.nodes = 1; max_batch = 1; input_seed = 7 } in
     let workload =
       Engine.synthesize ~models:3
         (Arrival.Poisson { rate_rps = 400000.0 })
         ~seed:5 ~duration_s:0.0002 ~frequency_ghz:1.0
     in
     (tight, config, workload, Engine.run ~domains:2 config tight workload))

(* Write [text] to a temporary file and load it back as a trace. *)
let load_text text =
  let path = Filename.temp_file "puma_serve" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc -> output_string oc text);
      Trace.load path)

(* [doc] with the value of its field [key] mapped through [f]. *)
let map_field key f = function
  | Json.Obj fields ->
      Json.Obj (List.map (fun (k, v) -> (k, if k = key then f v else v)) fields)
  | v -> v

let mentions what e expect =
  Alcotest.(check bool)
    (Printf.sprintf "%s: error %S mentions %S" what e expect)
    true
    (Puma_util.Strings.contains ~sub:expect e)

let test_replay_roundtrip () =
  let tight, config, workload, report = Lazy.force recorded in
  Alcotest.(check bool) "run rejects under pressure" true
    (Array.length report.Engine.rejections > 0);
  let trace = Trace.of_report ~arrival_spec:"poisson:20000" tight report in
  let path = Filename.temp_file "puma_serve" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Trace.save path trace;
      match Trace.load path with
      | Error e -> Alcotest.failf "load failed: %s" e
      | Ok loaded ->
          Alcotest.(check bool) "trace roundtrips" true (loaded = trace);
          Alcotest.(check bool) "workload reproduced" true
            (Trace.workload_of loaded = workload);
          Alcotest.(check bool) "config reproduced" true
            (Trace.config_of loaded = config);
          Alcotest.(check bool) "models reproduced" true
            (Trace.models_of loaded ~compile:(fun name ->
                 (Array.to_list tight
                 |> List.find (fun (m : Engine.model) -> m.Engine.name = name))
                   .Engine.program)
            = tight);
          (* Replay: a fresh run of the recorded workload must reproduce
             the whole report. *)
          let replayed =
            Engine.run ~domains:1 (Trace.config_of loaded) tight
              (Trace.workload_of loaded)
          in
          (match Trace.check loaded replayed with
          | Ok () -> ()
          | Error e -> Alcotest.failf "replay diverged: %s" e);
          Alcotest.(check bool) "latencies identical" true
            (Array.map (Engine.latency_ms replayed) replayed.Engine.served
            = Array.map (Engine.latency_ms report) report.Engine.served);
          (* The machine keys and the report are required: a trace
             without one names it, and traces of versions 1 and 2 are
             refused. *)
          let doc = Trace.to_json trace in
          let refused what doc expect =
            match load_text (Json.to_string doc) with
            | Ok _ -> Alcotest.failf "%s: load unexpectedly succeeded" what
            | Error e -> mentions what e expect
          in
          List.iter
            (fun key ->
              refused ("without " ^ key)
                (match doc with
                | Json.Obj fields ->
                    Json.Obj (List.filter (fun (k, _) -> k <> key) fields)
                | v -> v)
                key)
            [ "chips"; "scheme"; "topology"; "report" ];
          List.iter
            (fun v ->
              refused
                (Printf.sprintf "version %d" v)
                (map_field "version" (fun _ -> Json.Int v) doc)
                (Printf.sprintf "unsupported trace version %d" v))
            [ 1; 2 ])

(* A saved trace with one served request's number changed must fail the
   check against the run it recorded, naming that request's path. *)
let test_tampered_trace_diverges () =
  let tight, _, _, report = Lazy.force recorded in
  let trace = Trace.of_report tight report in
  let victim = report.Engine.served.(1).Engine.arrival in
  let bump = function Json.Int n -> Json.Int (n + 1) | v -> v in
  let tamper key =
    map_field "requests" (function
      | Json.List requests ->
          Json.List
            (List.mapi
               (fun i r -> if i = victim then map_field key bump r else r)
               requests)
      | v -> v)
  in
  List.iter
    (fun key ->
      let doc = Trace.to_json { trace with report = tamper key trace.report } in
      match load_text (Json.to_string doc) with
      | Error e -> Alcotest.failf "tampered %s: load failed: %s" key e
      | Ok loaded -> (
          match Trace.check loaded report with
          | Ok () -> Alcotest.failf "tampered %s: replay check passed" key
          | Error e ->
              mentions ("tampered " ^ key) e
                (Printf.sprintf "report.requests[%d].%s" victim key)))
    [ "finish_cycle"; "model_request" ]

let test_load_errors () =
  let check_error name text expect =
    match load_text text with
    | Ok _ -> Alcotest.failf "%s: load unexpectedly succeeded" name
    | Error e -> mentions name e expect
  in
  (* Syntax error on line 3 must be reported as line 3. *)
  check_error "syntax" "{\n  \"version\": 3,\n  oops\n}\n" "line 3";
  check_error "version" "{\"version\": 99}" "version";
  check_error "version 2" "{\"version\": 2}" "unsupported trace version 2";
  check_error "missing report" "{\"version\": 3}" "report";
  Alcotest.(check bool) "missing file is an error" true
    (match Trace.load "/nonexistent/trace.json" with
    | Error _ -> true
    | Ok _ -> false)

(* ---- Event-loop invariants (qcheck, synthetic costs) ---- *)

(* schedule is a pure function of (config, models, workload, costs), so
   the properties run on synthetic costs with one shared tiny program —
   no simulation in the loop, which keeps shrinking fast. *)
let tiny_program =
  lazy
    ((Compile.compile
        { Config.sweetspot with mvmu_dim = 32 }
        (Network.build_graph Models.mini_mlp))
       .Compile.program)

let synth_models n ~queue_limit =
  Array.init n (fun i ->
      Engine.model
        ~priority:(i mod 2)
        ~queue_limit
        ~name:(Printf.sprintf "m%d" i)
        (Lazy.force tiny_program))

(* One generated case: fleet shape plus a list of (gap, model pick, cost)
   triples. Building the workload from gaps keeps every shrunk case
   sorted by construction, so shrinking explores only valid inputs. *)
let case_arb =
  QCheck.(
    pair
      (pair (int_range 1 3) (int_range 1 3))
      (pair (int_range 0 2)
         (small_list (triple (int_range 0 30) (int_range 0 5) (int_range 1 40)))))

let build_case ((nodes, max_batch), (queue_limit, triples)) =
  let nmodels = 3 in
  let models = synth_models nmodels ~queue_limit in
  let config = { Engine.nodes; max_batch; input_seed = 1 } in
  let cycle = ref 0 in
  let workload =
    Array.of_list
      (List.map
         (fun (gap, pick, _) ->
           cycle := !cycle + gap;
           { Engine.cycle = !cycle; model = pick mod nmodels })
         triples)
  in
  let costs =
    Array.of_list
      (List.map
         (fun (_, _, c) -> { Engine.cycles = c; energy_pj = 1.0; outputs = [] })
         triples)
  in
  (config, models, workload, costs)

let prop_conservation =
  QCheck.Test.make ~name:"every arrival served or rejected exactly once"
    ~count:300 case_arb (fun case ->
      let config, models, workload, costs = build_case case in
      let r = Engine.schedule config models workload costs in
      let n = Array.length workload in
      let seen = Array.make n 0 in
      Array.iter
        (fun (s : Engine.served) -> seen.(s.Engine.arrival) <- seen.(s.Engine.arrival) + 1)
        r.Engine.served;
      Array.iter
        (fun (x : Engine.rejection) ->
          seen.(x.Engine.arrival) <- seen.(x.Engine.arrival) + 1)
        r.Engine.rejections;
      Array.for_all (fun c -> c = 1) seen
      && Array.length r.Engine.served + Array.length r.Engine.rejections = n)

let prop_clock_monotone =
  QCheck.Test.make ~name:"virtual clock is monotone" ~count:300 case_arb
    (fun case ->
      let config, models, workload, costs = build_case case in
      let r = Engine.schedule config models workload costs in
      let ok = ref true in
      Array.iteri
        (fun i c ->
          if i > 0 && c < r.Engine.event_cycles.(i - 1) then ok := false)
        r.Engine.event_cycles;
      Array.iter
        (fun (s : Engine.served) ->
          if
            not
              (s.Engine.arrival_cycle <= s.Engine.start_cycle
              && s.Engine.start_cycle < s.Engine.finish_cycle
              && s.Engine.finish_cycle <= r.Engine.makespan_cycles)
          then ok := false)
        r.Engine.served;
      !ok)

let prop_nodes_never_overlap =
  QCheck.Test.make ~name:"per-node dispatch windows never overlap" ~count:300
    case_arb (fun case ->
      let config, models, workload, costs = build_case case in
      let r = Engine.schedule config models workload costs in
      (* A node's served requests, sorted by start, partition into batches
         whose [start, last finish) windows must not overlap. *)
      let by_node = Array.make config.Engine.nodes [] in
      Array.iter
        (fun (s : Engine.served) ->
          by_node.(s.Engine.node) <- s :: by_node.(s.Engine.node))
        r.Engine.served;
      Array.for_all
        (fun served ->
          let sorted =
            List.sort
              (fun (a : Engine.served) (b : Engine.served) ->
                compare
                  (a.Engine.start_cycle, a.Engine.finish_cycle)
                  (b.Engine.start_cycle, b.Engine.finish_cycle))
              served
          in
          let rec windows acc = function
            | [] -> List.rev acc
            | (s : Engine.served) :: rest -> (
                match acc with
                | (lo, hi) :: tl when s.Engine.start_cycle = lo ->
                    (* Same batch: extends the window. *)
                    windows ((lo, max hi s.Engine.finish_cycle) :: tl) rest
                | _ ->
                    windows ((s.Engine.start_cycle, s.Engine.finish_cycle) :: acc)
                      rest)
          in
          let rec disjoint = function
            | (_, hi) :: ((lo, _) :: _ as rest) -> hi <= lo && disjoint rest
            | _ -> true
          in
          disjoint (windows [] sorted))
        by_node)

let prop_model_fifo =
  QCheck.Test.make ~name:"per-model service is FIFO" ~count:300 case_arb
    (fun case ->
      let config, models, workload, costs = build_case case in
      let r = Engine.schedule config models workload costs in
      let nmodels = Array.length models in
      let ok = ref true in
      for m = 0 to nmodels - 1 do
        let starts =
          Array.to_list r.Engine.served
          |> List.filter (fun (s : Engine.served) -> s.Engine.model = m)
          |> List.sort (fun (a : Engine.served) (b : Engine.served) ->
                 compare a.Engine.model_request b.Engine.model_request)
          |> List.map (fun (s : Engine.served) -> s.Engine.start_cycle)
        in
        let rec nondecreasing = function
          | a :: (b :: _ as rest) -> a <= b && nondecreasing rest
          | _ -> true
        in
        if not (nondecreasing starts) then ok := false
      done;
      !ok)

let prop_rejections_respect_limit =
  QCheck.Test.make ~name:"rejections only at the queue limit" ~count:300
    case_arb (fun case ->
      let config, models, workload, costs = build_case case in
      let r = Engine.schedule config models workload costs in
      let limit = models.(0).Engine.queue_limit in
      if limit = 0 then Array.length r.Engine.rejections = 0
      else
        Array.for_all
          (fun (x : Engine.rejection) -> x.Engine.queue_depth >= limit)
          r.Engine.rejections)

(* ---- Arrival-process invariants ---- *)

let process_arb =
  QCheck.(
    map
      (fun (pick, rate) ->
        let rate = 200.0 +. (float_of_int rate *. 40.0) in
        match pick mod 3 with
        | 0 -> Arrival.Poisson { rate_rps = rate }
        | 1 ->
            Arrival.Bursty
              {
                base_rps = rate;
                burst_rps = 4.0 *. rate;
                period_s = 0.01;
                duty = 0.25;
              }
        | _ ->
            Arrival.Diurnal
              { mean_rps = rate; amplitude = 0.8; period_s = 0.02 })
      (pair (int_range 0 2) (int_range 0 50)))

let prop_arrival_deterministic =
  QCheck.Test.make ~name:"same (process, seed) gives identical times"
    ~count:100
    QCheck.(pair process_arb small_nat)
    (fun (p, seed) ->
      Arrival.times p ~seed ~duration_s:0.05
      = Arrival.times p ~seed ~duration_s:0.05)

let prop_arrival_prefix_stable =
  QCheck.Test.make
    ~name:"a longer duration extends the shorter run's sequence" ~count:100
    QCheck.(pair process_arb small_nat)
    (fun (p, seed) ->
      let short = Arrival.times p ~seed ~duration_s:0.02 in
      let long = Arrival.times p ~seed ~duration_s:0.05 in
      Array.length short <= Array.length long
      && Array.for_all2 (fun a b -> a = b) short
           (Array.sub long 0 (Array.length short)))

let prop_arrival_sorted_in_range =
  QCheck.Test.make ~name:"times nondecreasing and within the duration"
    ~count:100
    QCheck.(pair process_arb small_nat)
    (fun (p, seed) ->
      let duration_s = 0.05 in
      let ts = Arrival.times p ~seed ~duration_s in
      let ok = ref true in
      Array.iteri
        (fun i t ->
          if t < 0.0 || t >= duration_s then ok := false;
          if i > 0 && t < ts.(i - 1) then ok := false)
        ts;
      !ok)

let prop_synthesize_domainless =
  (* Workload synthesis never consults the machine: two calls agree, and
     model assignment is a pure function of the arrival index. *)
  QCheck.Test.make ~name:"synthesized workloads are reproducible" ~count:100
    QCheck.(pair process_arb small_nat)
    (fun (p, seed) ->
      let w () =
        Engine.synthesize ~models:3 p ~seed ~duration_s:0.03
          ~frequency_ghz:1.0
      in
      w () = w ())

(* ---- Scheduling policy unit tests ---- *)

let test_priority_preempts_dispatch () =
  (* One request occupies the single node; six more (alternating models)
     queue behind it. Once the node frees, the high-priority model must
     drain completely before any queued low-priority request starts.
     (Arrivals into an idle fleet dispatch immediately regardless of
     priority — priority orders the *queues*, hence the occupier.) *)
  let program = Lazy.force tiny_program in
  let models =
    [|
      Engine.model ~priority:0 ~name:"lo" program;
      Engine.model ~priority:1 ~name:"hi" program;
    |]
  in
  let config = { Engine.nodes = 1; max_batch = 1; input_seed = 1 } in
  let workload =
    Array.append
      [| { Engine.cycle = 0; model = 0 } |]
      (Array.init 6 (fun i -> { Engine.cycle = 1; model = i mod 2 }))
  in
  let costs =
    Array.make 7 { Engine.cycles = 10; energy_pj = 1.0; outputs = [] }
  in
  let r = Engine.schedule config models workload costs in
  let starts m =
    Array.to_list r.Engine.served
    |> List.filter (fun (s : Engine.served) ->
           s.Engine.model = m && s.Engine.arrival > 0)
    |> List.map (fun (s : Engine.served) -> s.Engine.start_cycle)
  in
  let hi = starts 1 and lo = starts 0 in
  Alcotest.(check int) "all served" 7 (Array.length r.Engine.served);
  Alcotest.(check bool)
    (Printf.sprintf "hi drains first (hi max %d < lo min %d)"
       (List.fold_left max 0 hi) (List.fold_left min max_int lo))
    true
    (List.fold_left max 0 hi < List.fold_left min max_int lo)

let test_batching_amortizes () =
  (* One occupier, then four same-model requests queued behind it on one
     node: with max_batch 4 they dispatch as a single batch (one shared
     start cycle); with max_batch 1 they serialize into four. *)
  let program = Lazy.force tiny_program in
  let models = [| Engine.model ~name:"m" program |] in
  let workload =
    Array.append
      [| { Engine.cycle = 0; model = 0 } |]
      (Array.init 4 (fun _ -> { Engine.cycle = 1; model = 0 }))
  in
  let costs =
    Array.make 5 { Engine.cycles = 10; energy_pj = 1.0; outputs = [] }
  in
  let distinct_starts max_batch =
    let config = { Engine.nodes = 1; max_batch; input_seed = 1 } in
    let r = Engine.schedule config models workload costs in
    Array.to_list r.Engine.served
    |> List.filter (fun (s : Engine.served) -> s.Engine.arrival > 0)
    |> List.map (fun (s : Engine.served) -> s.Engine.start_cycle)
    |> List.sort_uniq compare |> List.length
  in
  Alcotest.(check int) "batch of four" 1 (distinct_starts 4);
  Alcotest.(check int) "serialized" 4 (distinct_starts 1)

(* A closed batch is a burst: every arrival at cycle 0, one request per
   dispatch. Costs [5;3;4;2;6] on 2 nodes: requests 0 and 1 start at 0;
   node 1 frees at 3 and takes request 2 (finishing at 7), node 0 frees
   at 5 and takes request 3 (also finishing at 7). Node 1's batch was
   dispatched first, so it completes first and takes request 4: 7 + 6 =
   13. *)
let test_burst_schedule () =
  let responses =
    Array.mapi
      (fun index cycles ->
        {
          Batch.index;
          outputs = [];
          cycles;
          dynamic_energy_pj = 1.0;
          stalls = [];
        })
      [| 5; 3; 4; 2; 6 |]
  in
  let r =
    Engine.burst ~nodes:2
      (Engine.model ~name:"m" (Lazy.force tiny_program))
      responses
  in
  Alcotest.(check int) "makespan" 13 r.Engine.makespan_cycles;
  Alcotest.(check (list (pair int int)))
    "(node, start) per request"
    [ (0, 0); (1, 0); (1, 3); (0, 5); (1, 7) ]
    (Array.to_list
       (Array.map
          (fun (s : Engine.served) -> (s.Engine.node, s.Engine.start_cycle))
          r.Engine.served));
  Alcotest.(check bool) "every arrival at cycle 0" true
    (Array.for_all
       (fun (s : Engine.served) -> s.Engine.arrival_cycle = 0)
       r.Engine.served);
  Alcotest.(check int) "one request per dispatch" 1 r.Engine.max_batch

let test_arrival_parse () =
  let ok spec =
    match Arrival.parse spec with
    | Ok p -> Alcotest.(check string) "round-trips" spec (Arrival.to_spec p)
    | Error e -> Alcotest.failf "%s failed to parse: %s" spec e
  in
  ok "poisson:2000";
  ok "bursty:500,4000,0.01,0.25";
  ok "diurnal:1000,0.8,0.02";
  List.iter
    (fun spec ->
      match Arrival.parse spec with
      | Ok _ -> Alcotest.failf "%s unexpectedly parsed" spec
      | Error _ -> ())
    [
      "";
      "poisson";
      "poisson:";
      "poisson:-3";
      "poisson:abc";
      "bursty:500";
      "bursty:500,4000,0";
      "bursty:500,4000,0.01,1.5";
      "diurnal:1000,2.0,0.02";
      "uniform:10";
    ]

let () =
  let qc = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "serve"
    [
      ( "differential",
        [
          Alcotest.test_case "serve outputs == Batch.run (3 models)" `Quick
            test_differential_vs_batch;
          Alcotest.test_case "report independent of domains/fast" `Quick
            test_domain_count_independent;
          Alcotest.test_case "zero-load drain" `Quick test_zero_load_drain;
        ] );
      ( "replay",
        [
          Alcotest.test_case "trace roundtrip reproduces decisions" `Quick
            test_replay_roundtrip;
          Alcotest.test_case "load errors name line and field" `Quick
            test_load_errors;
          Alcotest.test_case "tampered trace names the diverging path"
            `Quick test_tampered_trace_diverges;
        ] );
      ( "policy",
        [
          Alcotest.test_case "priority drains first" `Quick
            test_priority_preempts_dispatch;
          Alcotest.test_case "continuous batching amortizes" `Quick
            test_batching_amortizes;
          Alcotest.test_case "arrival spec parsing" `Quick test_arrival_parse;
          Alcotest.test_case "burst schedule pinned by hand" `Quick
            test_burst_schedule;
        ] );
      ( "properties",
        qc
          [
            prop_conservation;
            prop_clock_monotone;
            prop_nodes_never_overlap;
            prop_model_fifo;
            prop_rejections_respect_limit;
            prop_arrival_deterministic;
            prop_arrival_prefix_stable;
            prop_arrival_sorted_in_range;
            prop_synthesize_domainless;
          ] );
    ]
