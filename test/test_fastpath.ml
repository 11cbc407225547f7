(* The fast execution path's contract (the gate for every hot-path
   specialization): running a node with the pre-decoded fast loop is
   bit-identical to the cycle-accurate reference loop — outputs, cycle
   counts, retired-instruction counts, and the energy ledger's per-category
   event counts AND picojoules. Pinned differentially over the model zoo
   (at the sweetspot crossbar dimension and at the bench's dim-64 mini
   config), with a profiler attached, with a fault plan installed, through
   the batched runtime at several domain counts, and property-based over
   random MLP/RNN programs. The reference side is always
   [Node.run_reference], the oracle. *)

module B = Puma_graph.Builder
module Tensor = Puma_util.Tensor
module Rng = Puma_util.Rng
module Config = Puma_hwmodel.Config
module Energy = Puma_hwmodel.Energy
module Compile = Puma_compiler.Compile
module Node = Puma_sim.Node
module Batch = Puma_runtime.Batch
module Fault = Puma_xbar.Fault
module Models = Puma_nn.Models
module Profile = Puma_profile.Profile

let zoo =
  [
    ("mlp", Puma_nn.Network.build_graph Models.mini_mlp);
    ("lstm", Puma_nn.Network.build_graph Models.mini_lstm);
    ("rnn", Puma_nn.Network.build_graph Models.mini_rnn);
    ("lenet5", Puma_nn.Network.build_graph Models.lenet5);
    ("bm", Models.mini_bm);
    ("rbm", Models.mini_rbm);
  ]

(* The bench's mini configuration, with the full zoo. *)
let mini_config = { Config.sweetspot with Config.mvmu_dim = 64 }
let mini_zoo = zoo

let compile config graph =
  let options = { Compile.default_options with analysis_gate = false } in
  (Compile.compile ~options config graph).Compile.program

let inputs_for program ~seed =
  let rng = Rng.create seed in
  List.map
    (fun (name, len) -> (name, Tensor.vec_rand rng len 0.8))
    (Batch.input_lengths program)

(* ---- the shared bit-identity check ---- *)

let check_identical name (o1, n1) (o2, n2) =
  Alcotest.(check bool) (name ^ ": outputs bit-identical") true (o1 = o2);
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
    (Energy.total_pj e1 = Energy.total_pj e2)

(* The last run's outputs and the cycles of each run, on [run]
   ([Node.run] or the [Node.run_reference] oracle). *)
let run_node run node program ~seed ~runs =
  let last = ref [] in
  let per_run =
    List.init runs (fun i ->
        let before = Node.cycles node in
        last := run node ~inputs:(inputs_for program ~seed:(seed + i));
        Node.cycles node - before)
  in
  Node.finish_energy node;
  (!last, per_run)

(* Fast vs. reference over [runs] back-to-back inferences (state persists
   across runs, so multi-run divergence — e.g. a stale pre-decoded
   program or parked-entity state leaking between runs — would show,
   run by run). *)
let differential name program ~runs =
  let fast = Node.create ~noise_seed:3 program in
  let slow = Node.create ~noise_seed:3 program in
  let o_fast, c_fast = run_node Node.run fast program ~seed:42 ~runs in
  let o_slow, c_slow =
    run_node Node.run_reference slow program ~seed:42 ~runs
  in
  Alcotest.(check bool) (name ^ ": fast path engaged") true
    (Node.last_run_fast fast);
  Alcotest.(check bool) (name ^ ": reference path used") false
    (Node.last_run_fast slow);
  Alcotest.(check (list int)) (name ^ ": cycles per run") c_slow c_fast;
  check_identical name (o_fast, fast) (o_slow, slow)

(* One tile, TCU idle: core 1 stores the word core 0 is blocked loading,
   and core 0's load must succeed in that same cycle. Core 0 is stepped
   (and parked) before core 1 within the pass, so only the tile's
   shared-memory generation moving past its value at the start of the
   visit brings core 0 back in the re-pass. *)
let same_cycle_wake () =
  let config = Config.sweetspot in
  let layout = Puma_isa.Operand.layout config in
  let assemble source =
    match Puma_isa.Asm.parse_program layout source with
    | Ok code -> code
    | Error e -> Alcotest.fail e
  in
  let consumer =
    assemble
      "load r0, @10, w=1\n\
       alu.add r1, r0, r0, w=1\n\
       store @20, r1, count=0, w=1\n\
       halt\n"
  and producer =
    assemble "load r0, @0, w=1\nstore @10, r0, count=1, w=1\nhalt\n"
  in
  let program =
    {
      Puma_isa.Program.config;
      tiles =
        [|
          {
            Puma_isa.Program.tile_index = 0;
            core_code = [| consumer; producer |];
            tile_code = [||];
            mvmu_images = [];
          };
        |];
      inputs =
        [ { Puma_isa.Program.name = "x"; tile = 0; mem_addr = 0; length = 1; offset = 0 } ];
      outputs =
        [ { Puma_isa.Program.name = "y"; tile = 0; mem_addr = 20; length = 1; offset = 0 } ];
      constants = [];
    }
  in
  Puma_isa.Check.check_exn program;
  program

(* Four tiles. Tiles 0 and 2 each send one word in the same cycle, to
   tiles 3 and 1, whose TCUs are already parked on their FIFO: the
   network delivers to tile 3 before tile 1, and both then forward the
   word to tile 0's one FIFO in the same cycle. Tile 0 keeps the two
   words in arrival order, which follows the order the tiles were
   drained, so the output shows a pass that visits or drains tiles out
   of ascending order. Each receiving tile also runs a core whose ready
   times (odd, after a 1-cycle [set]) straddle its delivery without
   meeting it, so a delivery that fails to make its tile a candidate
   shows as a late receive rather than as a deadlock. *)
let worklist_order () =
  let config = Config.sweetspot in
  let layout = Puma_isa.Operand.layout config in
  let assemble source =
    match Puma_isa.Asm.parse_program layout source with
    | Ok code -> code
    | Error e -> Alcotest.fail e
  in
  let chain adds =
    [|
      assemble
        ("set r0, #1\n"
        ^ String.concat "" (List.init adds (fun _ -> "alu.add r1, r0, r0, w=1\n"))
        ^ "halt\n");
    |]
  in
  let forward =
    assemble
      "receive fifo0 -> @0, count=1, w=1\nsend @0 -> tile0 fifo0, w=1\nhalt\n"
  in
  let tile i core_code tile_code =
    { Puma_isa.Program.tile_index = i; core_code; tile_code; mvmu_images = [] }
  in
  let binding name tile mem_addr length =
    { Puma_isa.Program.name; tile; mem_addr; length; offset = 0 }
  in
  let program =
    {
      Puma_isa.Program.config;
      tiles =
        [|
          tile 0 (chain 6)
            (assemble
               "send @0 -> tile3 fifo0, w=1\n\
                receive fifo0 -> @1, count=0, w=1\n\
                receive fifo0 -> @2, count=0, w=1\n\
                halt\n");
          tile 1 (chain 2) forward;
          tile 2 [||] (assemble "send @0 -> tile1 fifo0, w=1\nhalt\n");
          tile 3 (chain 2) forward;
        |];
      inputs = [ binding "x" 0 0 1; binding "z" 2 0 1 ];
      outputs = [ binding "y" 0 1 2 ];
      constants = [];
    }
  in
  Puma_isa.Check.check_exn program;
  program

let test_zoo_sweetspot () =
  List.iter
    (fun (name, graph) ->
      differential name (compile Config.sweetspot graph) ~runs:2)
    zoo;
  differential "same-cycle wake" (same_cycle_wake ()) ~runs:3

let test_zoo_dim64 () =
  List.iter
    (fun (name, graph) ->
      differential (name ^ "@64") (compile mini_config graph) ~runs:2)
    mini_zoo

(* ---- observers and fault plans ride the fast loop, results unchanged ---- *)

let test_profiler_rides_fast_loop () =
  let program = compile Config.sweetspot (List.assoc "mlp" zoo) in
  let plain = Node.create ~noise_seed:3 program in
  let o_plain = run_node Node.run_reference plain program ~seed:7 ~runs:1 in
  let profiled = Node.create ~noise_seed:3 program in
  let p = Profile.create () in
  Profile.attach p profiled;
  let o_prof = run_node Node.run profiled program ~seed:7 ~runs:1 in
  Alcotest.(check bool) "profiled run took the fast loop" true
    (Node.last_run_fast profiled);
  (* Attribution changes how the ledger is recorded internally, so compare
     the observable results against the unprofiled reference run. *)
  Alcotest.(check bool) "profiled outputs bit-identical" true
    (o_plain = o_prof);
  Alcotest.(check int) "profiled cycles" (Node.cycles plain)
    (Node.cycles profiled);
  (* Detaching leaves the node on the fast loop, and it still matches. *)
  Profile.detach profiled;
  let o_fast = Node.run profiled ~inputs:(inputs_for program ~seed:8) in
  let o_ref = Node.run_reference plain ~inputs:(inputs_for program ~seed:8) in
  Alcotest.(check bool) "post-detach fast engaged" true
    (Node.last_run_fast profiled);
  Alcotest.(check bool) "post-detach outputs bit-identical" true
    (o_fast = o_ref)

let test_faults_ride_fast_loop () =
  let program = compile mini_config (List.assoc "mlp" zoo) in
  let spec = { Fault.ideal with Fault.stuck_rate = 0.01 } in
  let plan = Fault.plan ~seed:11 spec in
  let fast = Node.create ~noise_seed:3 ~faults:plan program in
  let slow = Node.create ~noise_seed:3 ~faults:plan program in
  let o_fast = run_node Node.run fast program ~seed:21 ~runs:1 in
  let o_slow = run_node Node.run_reference slow program ~seed:21 ~runs:1 in
  Alcotest.(check bool) "faulted node takes the fast loop" true
    (Node.last_run_fast fast);
  Alcotest.(check bool) "reference path used" false (Node.last_run_fast slow);
  check_identical "mlp+faults" (o_fast, fast) (o_slow, slow)

(* ---- the reference mode retries what the fast mode parks ---- *)

(* Both modes under a probe that counts stall events: the results agree,
   and the reference mode, which steps every blocked entity again on
   every pass, must report strictly more stalls. Equal counts would mean
   the oracle had quietly become a copy of the fast mode. *)
let test_reference_does_not_park () =
  let program = compile mini_config (List.assoc "lstm" zoo) in
  let counted () =
    let node = Node.create ~noise_seed:3 program in
    let stalls = ref 0 in
    Node.set_probe node
      (Some { Node.null_probe with on_stall = (fun ~now:_ ~tile:_ ~core:_ _ -> incr stalls) });
    (node, stalls)
  in
  let fast, fast_stalls = counted () and slow, slow_stalls = counted () in
  let o_fast = run_node Node.run fast program ~seed:13 ~runs:2 in
  let o_slow = run_node Node.run_reference slow program ~seed:13 ~runs:2 in
  check_identical "lstm@64 probed" (fst o_fast, fast) (fst o_slow, slow);
  Alcotest.(check (list int)) "cycles per run" (snd o_slow) (snd o_fast);
  Alcotest.(check bool)
    (Printf.sprintf "reference stalls %d > fast stalls %d" !slow_stalls
       !fast_stalls)
    true
    (!fast_stalls > 0 && !slow_stalls > !fast_stalls)

(* ---- the fast mode's worklists keep the scan's tile order ---- *)

let test_worklist_order () =
  differential "worklist order" (worklist_order ()) ~runs:3

(* ---- the batched runtime matches the oracle at any domain count ---- *)

(* Each request served on one node warmed and driven by the reference
   loop alone: its outputs, cycles and dynamic energy (event-count deltas
   times per-event energies, summed in category order) are what every
   [Batch.run] worker must report, whichever worker served it. *)
let test_batch_domains () =
  let program = compile mini_config (List.assoc "rnn" zoo) in
  let requests = Batch.random_requests program ~batch:6 ~seed:5 in
  let oracle = Node.create ~noise_seed:3 program in
  let zeros =
    List.map (fun (name, len) -> (name, Array.make len 0.0))
      (Batch.input_lengths program)
  in
  ignore (Node.run_reference oracle ~inputs:zeros);
  let counts () =
    List.map (Energy.count (Node.energy oracle)) Energy.all_categories
  in
  let expected =
    List.map
      (fun (r : Batch.request) ->
        let before = Node.cycles oracle and e0 = counts () in
        let outputs = Node.run_reference oracle ~inputs:r.inputs in
        let energy_pj =
          List.fold_left2
            (fun acc cat (b, a) ->
              acc
              +. (Float.of_int (a - b)
                 *. Energy.per_event_pj (Node.config oracle) cat))
            0.0 Energy.all_categories
            (List.combine e0 (counts ()))
        in
        (outputs, Node.cycles oracle - before, energy_pj))
      requests
  in
  List.iter
    (fun domains ->
      let responses, _ = Batch.run ~domains ~noise_seed:3 program requests in
      let name = Printf.sprintf "rnn batch @%d domains" domains in
      Alcotest.(check int)
        (name ^ ": response count")
        (List.length expected) (Array.length responses);
      List.iteri
        (fun i (outputs, cycles, energy_pj) ->
          let r = responses.(i) in
          Alcotest.(check bool)
            (Printf.sprintf "%s: response %d outputs bit-identical" name i)
            true (r.outputs = outputs);
          Alcotest.(check int)
            (Printf.sprintf "%s: response %d cycles" name i)
            cycles r.cycles;
          Alcotest.(check bool)
            (Printf.sprintf "%s: response %d energy bit-identical" name i)
            true
            (r.dynamic_energy_pj = energy_pj))
        expected;
      Alcotest.(check int)
        (name ^ ": serial cycles")
        (List.fold_left (fun acc (_, c, _) -> acc + c) 0 expected)
        (Array.fold_left
           (fun acc (r : Batch.response) -> acc + r.cycles)
           0 responses))
    [ 1; 2; 4 ]

(* ---- property: random programs agree exactly, with shrinking ---- *)

let random_mlp n_in n_h seed =
  let rng = Rng.create (seed + 1) in
  let m = B.create "rand-mlp" in
  let x = B.input m ~name:"x" ~len:n_in in
  let w1 = B.const_matrix m ~name:"W1" (Tensor.mat_rand rng n_h n_in 0.1) in
  let w2 = B.const_matrix m ~name:"W2" (Tensor.mat_rand rng 8 n_h 0.1) in
  B.output m ~name:"y"
    (B.sigmoid m (B.mvm m w2 (B.sigmoid m (B.mvm m w1 x))));
  B.finish m

(* Two-step unrolled Elman RNN: exercises the recurrent dataflow shape
   (matrix reuse, add, tanh) the zoo's rnn/lstm models compile to. *)
let random_rnn n_in n_h seed =
  let rng = Rng.create (seed + 2) in
  let m = B.create "rand-rnn" in
  let x = B.input m ~name:"x" ~len:n_in in
  let wx = B.const_matrix m ~name:"Wx" (Tensor.mat_rand rng n_h n_in 0.1) in
  let wh = B.const_matrix m ~name:"Wh" (Tensor.mat_rand rng n_h n_h 0.1) in
  let h = ref (B.tanh m (B.mvm m wx x)) in
  for _ = 1 to 2 do
    h := B.tanh m (B.add m (B.mvm m wh !h) (B.mvm m wx x))
  done;
  B.output m ~name:"y" !h;
  B.finish m

(* Structural equality on the immutable results is exact bit-identity
   (no NaNs in these workloads). The generator's int_range components
   shrink, so a failure reduces toward the smallest divergent program. *)
let agree graph =
  let config = { Config.sweetspot with Config.mvmu_dim = 32 } in
  let program = compile config graph in
  let fast = Node.create ~noise_seed:3 program in
  let slow = Node.create ~noise_seed:3 program in
  let inputs = inputs_for program ~seed:77 in
  let o_fast = Node.run fast ~inputs in
  let o_slow = Node.run_reference slow ~inputs in
  Node.finish_energy fast;
  Node.finish_energy slow;
  let e1 = Node.energy fast and e2 = Node.energy slow in
  Node.last_run_fast fast
  && (not (Node.last_run_fast slow))
  && o_fast = o_slow
  && Node.cycles fast = Node.cycles slow
  && Node.retired_instructions fast = Node.retired_instructions slow
  && List.for_all
       (fun cat ->
         Energy.count e1 cat = Energy.count e2 cat
         && Energy.energy_pj e1 cat = Energy.energy_pj e2 cat)
       Energy.all_categories

let spec_gen =
  QCheck.(triple (int_range 8 40) (int_range 8 40) (int_range 0 10_000))

let prop_random_mlps =
  QCheck.Test.make ~name:"fast = reference on random MLPs" ~count:12 spec_gen
    (fun (n_in, n_h, seed) -> agree (random_mlp n_in n_h seed))

let prop_random_rnns =
  QCheck.Test.make ~name:"fast = reference on random RNNs" ~count:12 spec_gen
    (fun (n_in, n_h, seed) -> agree (random_rnn n_in n_h seed))

let () =
  Alcotest.run "fastpath"
    [
      ( "differential",
        [
          Alcotest.test_case "zoo @ sweetspot" `Quick test_zoo_sweetspot;
          Alcotest.test_case "zoo @ dim 64" `Quick test_zoo_dim64;
          Alcotest.test_case "profiler rides the fast loop" `Quick
            test_profiler_rides_fast_loop;
          Alcotest.test_case "fault plan rides the fast loop" `Quick
            test_faults_ride_fast_loop;
          Alcotest.test_case "batch across domains" `Quick test_batch_domains;
          Alcotest.test_case "reference mode does not park" `Quick
            test_reference_does_not_park;
          Alcotest.test_case "worklist order" `Quick test_worklist_order;
        ] );
      ( "property",
        [
          QCheck_alcotest.to_alcotest prop_random_mlps;
          QCheck_alcotest.to_alcotest prop_random_rnns;
        ] );
    ]
