(* The profiling layer's contract: attaching a profiler never changes
   simulation results (differential over the model zoo), everything a
   profile reports is byte-identical on the fast and the reference loop
   (zoo and random programs), the cycle
   accounting is exhaustive (busy + stalled + idle = makespan for every
   entity), per-tile energy rows sum back to the ledger total, and the
   Chrome trace export is schema-valid and pinned on a tiny program. *)

module B = Puma_graph.Builder
module Tensor = Puma_util.Tensor
module Rng = Puma_util.Rng
module Json = Puma_util.Json
module Config = Puma_hwmodel.Config
module Energy = Puma_hwmodel.Energy
module Compile = Puma_compiler.Compile
module Node = Puma_sim.Node
module Batch = Puma_runtime.Batch
module Cluster = Puma_cluster.Cluster
module Models = Puma_nn.Models
module Profile = Puma_profile.Profile
module Chrome_trace = Puma_profile.Chrome_trace

let zoo =
  [
    ("mlp", Puma_nn.Network.build_graph Models.mini_mlp);
    ("lstm", Puma_nn.Network.build_graph Models.mini_lstm);
    ("rnn", Puma_nn.Network.build_graph Models.mini_rnn);
    ("lenet5", Puma_nn.Network.build_graph Models.lenet5);
    ("bm", Models.mini_bm);
    ("rbm", Models.mini_rbm);
  ]

(* Gate off: lenet5 has a known core-imem overflow but still simulates. *)
let compile_gate_off config graph =
  let options = { Compile.default_options with analysis_gate = false } in
  (Compile.compile ~options config graph).Compile.program

let compile_zoo graph = compile_gate_off Config.sweetspot graph

let inputs_for program ~seed =
  let rng = Rng.create seed in
  List.map
    (fun (name, len) -> (name, Tensor.vec_rand rng len 0.8))
    (Batch.input_lengths program)

(* ---- differential: profiler attached vs detached ---- *)

let run_once program ~profiled =
  let node = Node.create ~noise_seed:3 program in
  let prof =
    if profiled then begin
      let p = Profile.create () in
      Profile.attach p node;
      Some p
    end
    else None
  in
  let outputs = Node.run node ~inputs:(inputs_for program ~seed:42) in
  Node.finish_energy node;
  (outputs, node, prof)

let test_differential_zoo () =
  List.iter
    (fun (name, graph) ->
      let program = compile_zoo graph in
      let o1, n1, _ = run_once program ~profiled:false in
      let o2, n2, prof = run_once program ~profiled:true in
      Alcotest.(check bool)
        (name ^ ": outputs bit-identical") true (o1 = o2);
      Alcotest.(check int) (name ^ ": cycles") (Node.cycles n1) (Node.cycles n2);
      Alcotest.(check int)
        (name ^ ": retired instructions")
        (Node.retired_instructions n1)
        (Node.retired_instructions n2);
      let e1 = Node.energy n1 and e2 = Node.energy n2 in
      List.iter
        (fun cat ->
          Alcotest.(check int)
            (Printf.sprintf "%s: %s count" name (Energy.category_name cat))
            (Energy.count e1 cat) (Energy.count e2 cat);
          Alcotest.(check bool)
            (Printf.sprintf "%s: %s energy bit-identical" name
               (Energy.category_name cat))
            true
            (Energy.energy_pj e1 cat = Energy.energy_pj e2 cat))
        Energy.all_categories;
      Alcotest.(check bool)
        (name ^ ": total energy bit-identical")
        true
        (Energy.total_pj e1 = Energy.total_pj e2);
      (* The profiled run must have seen every retired core instruction
         (the profiler additionally counts TCU send/receive retires). *)
      let p = Option.get prof in
      let core_retired =
        List.fold_left
          (fun acc (s : Profile.entity_stat) ->
            if s.core >= 0 then acc + s.retired else acc)
          0 (Profile.entity_stats p)
      in
      Alcotest.(check int)
        (name ^ ": profiler retired count")
        (Node.retired_instructions n2)
        core_retired)
    zoo

(* ---- differential: profiled fast loop vs profiled reference loop ---- *)

let random_mlp (n_in, n_hidden, seed) =
  let rng = Rng.create (seed + 1) in
  let m = B.create "rand-mlp" in
  let x = B.input m ~name:"x" ~len:n_in in
  let w1 =
    B.const_matrix m ~name:"W1" (Tensor.mat_rand rng n_hidden n_in 0.1)
  in
  let w2 = B.const_matrix m ~name:"W2" (Tensor.mat_rand rng 8 n_hidden 0.1) in
  B.output m ~name:"y"
    (B.sigmoid m (B.mvm m w2 (B.sigmoid m (B.mvm m w1 x))));
  B.finish m

(* Two-step unrolled Elman RNN (matrix reuse, add, tanh). *)
let random_rnn (n_in, n_hidden, seed) =
  let rng = Rng.create (seed + 2) in
  let m = B.create "rand-rnn" in
  let x = B.input m ~name:"x" ~len:n_in in
  let wx = B.const_matrix m ~name:"Wx" (Tensor.mat_rand rng n_hidden n_in 0.1) in
  let wh =
    B.const_matrix m ~name:"Wh" (Tensor.mat_rand rng n_hidden n_hidden 0.1)
  in
  let h = ref (B.tanh m (B.mvm m wx x)) in
  for _ = 1 to 2 do
    h := B.tanh m (B.add m (B.mvm m wh !h) (B.mvm m wx x))
  done;
  B.output m ~name:"y" !h;
  B.finish m

(* Profile two back-to-back inferences on each loop and list what
   differs: the probe events feed the JSON accounting and the Chrome
   trace (slices, FIFO depths, sampled energy), so byte-identical
   exports mean the fast loop's event stream is as good as the
   reference loop's. *)
let profiled_mismatches program =
  let profiled run =
    let node = Node.create ~noise_seed:3 program in
    let p = Profile.create () in
    Profile.attach p node;
    let outputs =
      List.init 2 (fun i -> run node ~inputs:(inputs_for program ~seed:(42 + i)))
    in
    Node.finish_energy node;
    (node, outputs, Json.to_string (Profile.to_json p), Chrome_trace.to_string p)
  in
  let nf, of_, jf, tf = profiled Node.run in
  let nr, or_, jr, tr = profiled Node.run_reference in
  List.filter_map
    (fun (what, ok) -> if ok then None else Some what)
    [
      ("fast loop engaged", Node.last_run_fast nf);
      ("reference loop used", not (Node.last_run_fast nr));
      ("outputs", of_ = or_);
      ("cycles", Node.cycles nf = Node.cycles nr);
      ( "total energy",
        Energy.total_pj (Node.energy nf) = Energy.total_pj (Node.energy nr) );
      ("profile json", jf = jr);
      ("chrome trace", tf = tr);
    ]

let test_fast_vs_reference_zoo config () =
  List.iter
    (fun (name, graph) ->
      Alcotest.(check (list string))
        (name ^ ": profiled fast = reference")
        []
        (profiled_mismatches (compile_gate_off config graph)))
    zoo

let prop_fast_vs_reference name build =
  QCheck.Test.make ~name ~count:10
    QCheck.(triple (int_range 8 40) (int_range 8 40) (int_range 0 10_000))
    (fun spec ->
      let config = { Config.sweetspot with mvmu_dim = 32 } in
      profiled_mismatches (compile_gate_off config (build spec)) = [])

(* ---- accounting invariants ---- *)

let check_invariants ?(tol = 1e-9) p node =
  let total = Profile.total_cycles p in
  List.iter
    (fun (s : Profile.entity_stat) ->
      Alcotest.(check int)
        (Printf.sprintf "t%d.c%d: busy+stalled+idle = makespan" s.tile s.core)
        total
        (s.busy + s.stalled + s.idle))
    (Profile.entity_stats p);
  let tot = Profile.totals p in
  Alcotest.(check int) "totals sum over entities"
    (total * List.length (Profile.entity_stats p))
    (tot.Profile.busy_cycles + tot.Profile.stalled_cycles
   + tot.Profile.idle_cycles);
  let en = Node.energy node in
  let total_pj = Energy.total_pj en in
  let attributed = Energy.attributed_total_pj en in
  Alcotest.(check bool)
    (Printf.sprintf "tile rows sum to total (%.6f vs %.6f)" attributed total_pj)
    true
    (Float.abs (attributed -. total_pj) <= tol *. Float.max 1.0 total_pj)

let test_invariants_zoo () =
  List.iter
    (fun (_, graph) ->
      let program = compile_zoo graph in
      let node = Node.create program in
      let p = Profile.create () in
      Profile.attach p node;
      ignore (Node.run node ~inputs:(inputs_for program ~seed:9));
      ignore (Node.run node ~inputs:(inputs_for program ~seed:10));
      Node.finish_energy node;
      Alcotest.(check int) "two runs profiled" 2 (Profile.runs p);
      check_invariants p node)
    zoo

let prop_invariants_random_mlps =
  QCheck.Test.make ~name:"accounting invariants on random MLPs" ~count:15
    QCheck.(
      triple (int_range 8 40) (int_range 8 40) (int_range 0 10_000))
    (fun spec ->
      let (n_in, _, _) = spec in
      let config = { Config.sweetspot with mvmu_dim = 32 } in
      let program = (Compile.compile config (random_mlp spec)).Compile.program in
      let node = Node.create program in
      let p = Profile.create () in
      Profile.attach p node;
      let rng = Rng.create 77 in
      ignore (Node.run node ~inputs:[ ("x", Tensor.vec_rand rng n_in 0.8) ]);
      Node.finish_energy node;
      let total = Profile.total_cycles p in
      List.for_all
        (fun (s : Profile.entity_stat) -> s.busy + s.stalled + s.idle = total)
        (Profile.entity_stats p)
      &&
      let en = Node.energy node in
      Float.abs (Energy.attributed_total_pj en -. Energy.total_pj en)
      <= 1e-9 *. Float.max 1.0 (Energy.total_pj en))

(* ---- detach restores the unobserved hot path ---- *)

let test_detach () =
  let program = compile_zoo (List.assoc "mlp" zoo) in
  let node = Node.create program in
  let p = Profile.create () in
  Profile.attach p node;
  Alcotest.(check bool) "probe attached" true (Node.probe_attached node);
  ignore (Node.run node ~inputs:(inputs_for program ~seed:1));
  let runs_before = Profile.runs p in
  Profile.detach node;
  Alcotest.(check bool) "probe detached" false (Node.probe_attached node);
  Alcotest.(check bool) "attribution off" false
    (Energy.attribution_enabled (Node.energy node));
  ignore (Node.run node ~inputs:(inputs_for program ~seed:2));
  Alcotest.(check int) "detached run not profiled" runs_before (Profile.runs p)

(* ---- Chrome trace export ---- *)

let tiny_program () =
  let rng = Rng.create 5 in
  let m = B.create "tiny" in
  let x = B.input m ~name:"x" ~len:16 in
  let w = B.const_matrix m ~name:"W" (Tensor.mat_rand rng 16 16 0.1) in
  B.output m ~name:"y" (B.mvm m w x);
  let config = { Config.sweetspot with mvmu_dim = 16 } in
  (Compile.compile config (B.finish m)).Compile.program

let tiny_profile () =
  let program = tiny_program () in
  let node = Node.create program in
  let p = Profile.create () in
  Profile.attach p node;
  ignore (Node.run node ~inputs:(inputs_for program ~seed:3));
  Node.finish_energy node;
  p

let field name ev =
  match Json.member name ev with
  | Some v -> v
  | None -> Alcotest.failf "event missing %S: %s" name (Json.to_string ev)

let int_field name ev =
  match Json.to_int (field name ev) with
  | Some n -> n
  | None -> Alcotest.failf "event field %S not an int" name

let str_field name ev =
  match Json.to_str (field name ev) with
  | Some s -> s
  | None -> Alcotest.failf "event field %S not a string" name

let test_chrome_trace_schema () =
  let p = tiny_profile () in
  let doc =
    match Json.parse (Chrome_trace.to_string p) with
    | Ok doc -> doc
    | Error e -> Alcotest.failf "trace does not parse: %s" e
  in
  let events =
    match Option.bind (Json.member "traceEvents" doc) Json.to_list with
    | Some l -> l
    | None -> Alcotest.fail "traceEvents missing or not a list"
  in
  Alcotest.(check bool) "has events" true (events <> []);
  let last_ts = Hashtbl.create 8 in
  List.iter
    (fun ev ->
      match str_field "ph" ev with
      | "M" -> ignore (int_field "pid" ev)
      | "X" ->
          let ts = int_field "ts" ev in
          let dur = int_field "dur" ev in
          let pid = int_field "pid" ev in
          let tid = int_field "tid" ev in
          Alcotest.(check bool) "ts >= 0" true (ts >= 0);
          Alcotest.(check bool) "dur >= 0" true (dur >= 0);
          Alcotest.(check bool) "pid/tid >= 0" true (pid >= 0 && tid >= 0);
          let key = (pid, tid) in
          let prev = Option.value ~default:(-1) (Hashtbl.find_opt last_ts key) in
          Alcotest.(check bool) "ts monotone per track" true (ts >= prev);
          Hashtbl.replace last_ts key ts
      | "C" ->
          ignore (int_field "ts" ev);
          ignore (int_field "pid" ev);
          (match Json.member "args" ev with
          | Some (Json.Obj (_ :: _)) -> ()
          | _ -> Alcotest.fail "counter without args")
      | ph -> Alcotest.failf "unexpected phase %S" ph)
    events

let test_chrome_trace_golden () =
  let p = tiny_profile () in
  let events =
    match
      Option.bind (Json.member "traceEvents" (Chrome_trace.to_json p))
        Json.to_list
    with
    | Some l -> l
    | None -> Alcotest.fail "traceEvents missing"
  in
  let xs =
    List.filter (fun ev -> str_field "ph" ev = "X") events
    |> List.map (fun ev ->
           Printf.sprintf "%s ts=%d dur=%d pid=%d tid=%d" (str_field "name" ev)
             (int_field "ts" ev) (int_field "dur" ev) (int_field "pid" ev)
             (int_field "tid" ev))
  in
  (* The tiny single-MVM program is fully deterministic: pin the first
     slices of the trace (load x, move into XbarIn, the MVM on core 0). *)
  let first n l = List.filteri (fun i _ -> i < n) l in
  Alcotest.(check (list string))
    "first slices"
    [
      "load/store ts=0 dur=5 pid=0 tid=1";
      "vfu ts=5 dur=5 pid=0 tid=1";
      "mvm ts=10 dur=288 pid=0 tid=1";
    ]
    (first 3 xs);
  Alcotest.(check int) "no slices dropped" 0 (Profile.dropped_slices p)

let test_slice_window_bounded () =
  let program = compile_zoo (List.assoc "mlp" zoo) in
  let node = Node.create program in
  let p = Profile.create ~slice_capacity:8 () in
  Profile.attach p node;
  ignore (Node.run node ~inputs:(inputs_for program ~seed:4));
  Alcotest.(check int) "window bounded" 8 (List.length (Profile.slices p));
  Alcotest.(check bool) "drops counted" true (Profile.dropped_slices p > 0);
  (* Aggregate accounting is exact regardless of eviction. *)
  check_invariants p node

(* ---- report / json surface ---- *)

let test_report_renders () =
  let p = tiny_profile () in
  let r = Profile.report p in
  List.iter
    (fun needle ->
      Alcotest.(check bool)
        (Printf.sprintf "report mentions %S" needle)
        true
        (Puma_util.Strings.contains r ~sub:needle))
    [ "Occupancy"; "Top stalls"; "Energy by tile"; "t0.c0" ]

let test_to_json_roundtrip () =
  let p = tiny_profile () in
  let s = Json.to_string (Profile.to_json p) in
  match Json.parse s with
  | Error e -> Alcotest.failf "profile json does not parse: %s" e
  | Ok doc ->
      let cycles = Option.bind (Json.member "cycles" doc) Json.to_int in
      Alcotest.(check (option int))
        "cycles field" (Some (Profile.total_cycles p)) cycles

(* ---- batch runtime integration ---- *)

(* Mini MLP at dim 64 pipelined across 2 chips: its cross-node channels
   carry words over the fabric. *)
let cluster_mlp =
  lazy
    (let options =
       {
         Compile.default_options with
         cluster =
           Some { Puma_compiler.Partition.nodes = 2; scheme = Pipelined };
       }
     in
     (Compile.compile ~options
        { Config.sweetspot with mvmu_dim = 64 }
        (List.assoc "mlp" zoo))
       .Compile.program)

(* Profiled and plain batches agree on a single-node machine and on a
   2-chip cluster, whose profile sees every chip. *)
let test_batch_profile_differential () =
  List.iter
    (fun (label, program, cluster_nodes) ->
      let requests = Batch.random_requests program ~batch:6 ~seed:13 in
      let run profile =
        Batch.run ~domains:2 ?cluster_nodes ~profile program requests
      in
      let r_plain, o_plain = run false in
      let r_prof, o_prof = run true in
      Array.iteri
        (fun i (plain : Batch.response) ->
          let prof = r_prof.(i) in
          Alcotest.(check bool)
            (Printf.sprintf "%s request %d outputs" label i)
            true
            (plain.Batch.outputs = prof.Batch.outputs);
          Alcotest.(check int)
            (Printf.sprintf "%s request %d cycles" label i)
            plain.Batch.cycles prof.Batch.cycles;
          (* Same tolerance as the serial-vs-sharded differential: which
             requests preceded this one on its worker's node shifts the
             float accumulator history, profiled or not. *)
          Alcotest.(check (float 1e-9))
            (Printf.sprintf "%s request %d energy" label i)
            plain.Batch.dynamic_energy_pj prof.Batch.dynamic_energy_pj;
          Alcotest.(check bool) "plain run has no stalls recorded" true
            (plain.Batch.stalls = []))
        r_plain;
      let cycles = Array.map (fun (r : Batch.response) -> r.Batch.cycles) in
      Alcotest.(check (array int))
        (label ^ ": same per-request cycles")
        (cycles r_plain) (cycles r_prof);
      Alcotest.(check bool) (label ^ ": plain run observes no occupancy") true
        (o_plain.Batch.busy_cycles = 0 && o_plain.Batch.stall_cycles = []);
      Alcotest.(check bool) (label ^ ": profiled occupancy decomposes") true
        (o_prof.Batch.busy_cycles > 0);
      (* Each profiled request's stall split is bounded by its makespan
         times the entity count (coarse sanity; exact accounting is pinned
         above). *)
      Array.iter
        (fun (r : Batch.response) ->
          List.iter
            (fun (_, n) -> Alcotest.(check bool) "stall positive" true (n > 0))
            r.Batch.stalls)
        r_prof)
    [
      ("node", compile_zoo (List.assoc "mlp" zoo), None);
      ("2-chip cluster", Lazy.force cluster_mlp, Some 2);
    ]

(* A profiler attached to a cluster's node accounts for the whole
   machine: the usual invariants hold over the global tile space, and
   every off-chip word is attributed to a tile that sends across chips. *)
let test_cluster_attribution () =
  let program = Lazy.force cluster_mlp in
  let cl = Cluster.create ~nodes:2 program in
  let node = Cluster.node cl in
  let p = Profile.create () in
  Profile.attach p node;
  ignore (Cluster.run cl ~inputs:(inputs_for program ~seed:9));
  ignore (Cluster.run cl ~inputs:(inputs_for program ~seed:10));
  Node.finish_energy node;
  Alcotest.(check int) "two runs profiled" 2 (Profile.runs p);
  check_invariants p node;
  let en = Node.energy node in
  let ntiles = Node.num_tiles node in
  let stride = ntiles / 2 in
  let sends_off_chip ti =
    let (tp : Puma_isa.Program.tile_program) =
      program.Puma_isa.Program.tiles.(ti)
    in
    Array.exists
      (Array.exists (function
        | Puma_isa.Instr.Send { target; _ } -> target / stride <> ti / stride
        | _ -> false))
      (Array.append [| tp.tile_code |] tp.core_code)
  in
  let words = Cluster.offchip_words cl in
  Alcotest.(check bool) "words crossed chips" true (words > 0);
  Alcotest.(check int) "no unattributed off-chip words" 0
    (Energy.tile_count en ~tile:(-1) Energy.Offchip);
  let attributed = ref 0 in
  for ti = 0 to ntiles - 1 do
    let n = Energy.tile_count en ~tile:ti Energy.Offchip in
    if n > 0 then
      Alcotest.(check bool)
        (Printf.sprintf "tile %d sends across chips" ti)
        true (sends_off_chip ti);
    attributed := !attributed + n
  done;
  Alcotest.(check int) "off-chip words all attributed" words !attributed

let () =
  let qc = List.map QCheck_alcotest.to_alcotest [ prop_invariants_random_mlps ] in
  let mini_config = { Config.sweetspot with mvmu_dim = 64 } in
  Alcotest.run "profile"
    [
      ( "differential",
        [
          Alcotest.test_case "zoo attached vs detached" `Quick
            test_differential_zoo;
          Alcotest.test_case "batch runtime" `Quick
            test_batch_profile_differential;
          Alcotest.test_case "profiled fast=ref zoo @ sweetspot" `Quick
            (test_fast_vs_reference_zoo Config.sweetspot);
          Alcotest.test_case "profiled fast=ref zoo @ dim 64" `Quick
            (test_fast_vs_reference_zoo mini_config);
        ]
        @ List.map QCheck_alcotest.to_alcotest
            [
              prop_fast_vs_reference "profiled fast=ref random MLPs" random_mlp;
              prop_fast_vs_reference "profiled fast=ref random RNNs" random_rnn;
            ] );
      ( "accounting",
        [
          Alcotest.test_case "zoo invariants" `Quick test_invariants_zoo;
          Alcotest.test_case "cluster attribution" `Quick
            test_cluster_attribution;
          Alcotest.test_case "detach" `Quick test_detach;
          Alcotest.test_case "bounded window" `Quick test_slice_window_bounded;
        ]
        @ qc );
      ( "export",
        [
          Alcotest.test_case "chrome trace schema" `Quick
            test_chrome_trace_schema;
          Alcotest.test_case "chrome trace golden" `Quick
            test_chrome_trace_golden;
          Alcotest.test_case "report" `Quick test_report_renders;
          Alcotest.test_case "json" `Quick test_to_json_roundtrip;
        ] );
    ]
