(* The four benchmark workloads.

   Every workload follows the same shape: set up (repeated, so set-up
   time is a median), then loop over chunks — a compile round, a serve
   episode, a batch of inferences — until the run's time budget is spent,
   checking every output against the float oracle between chunks and
   outside the timed regions. Simulated and accuracy metrics come from a
   fixed prefix of chunks, which every run completes, so they are exact
   functions of (seed, commit); host metrics are medians over all chunks.

   In a traced run, odd chunks and odd set-ups are traced: the compiler
   is replayed pass by pass from outside with a span per pass, and every
   other call into a layer gets a span. Even chunks run untraced, so the
   tracing overhead is measured in the same process. *)

module Analyze = Puma_analysis.Analyze
module Batch = Puma_runtime.Batch
module Bitslice = Puma_xbar.Bitslice
module Cluster = Puma_cluster.Cluster
module Codegen = Puma_compiler.Codegen
module Compile = Puma_compiler.Compile
module Config = Puma_hwmodel.Config
module Diag = Puma_analysis.Diag
module Energy = Puma_hwmodel.Energy
module Engine = Puma_serve.Engine
module Equiv = Puma_analysis.Equiv
module Graph = Puma_graph.Graph
module Lgraph = Puma_compiler.Lgraph
module Models = Puma_nn.Models
module Network = Puma_nn.Network
module Node = Puma_sim.Node
module Optimize = Puma_compiler.Optimize
module Partition = Puma_compiler.Partition
module Profile = Puma_profile.Profile
module Program = Puma_isa.Program
module Resource = Puma_analysis.Resource
module Rng = Puma_util.Rng
module Schedule = Puma_compiler.Schedule
module Sequencing = Puma_compiler.Sequencing
module Stats = Puma_util.Stats
module Tensor = Puma_util.Tensor
module Tiling = Puma_compiler.Tiling

(* The error bound of the compiler's end-to-end tests. *)
let tolerance = 0.03

(* The serving fleet of [sim_max_rps_at_p99] and of zoo-serve. *)
let fleet_nodes = 4
let fleet_max_batch = 4
let serve_rate_rps = 270_000.0

type ctx = {
  seed : int;
  seconds : float;  (** Wall-time budget of the chunk loop. *)
  smoke : bool;  (** About 1/20 size: correctness only. *)
  trace : Span.t;  (** Disabled in untraced runs. *)
}

let sub_seed ctx k = Batch.request_seed ~seed:ctx.seed ~index:k
let config_of_dim dim = { Config.sweetspot with mvmu_dim = dim }

(* Chunk or set-up [k] is traced in a traced run when [k] is odd; an
   untraced one is still covered by a single span so the trace accounts
   for its wall time. *)
let traced ctx k = Span.enabled ctx.trace && k mod 2 = 1

let with_chunk ctx k f =
  if traced ctx k then f ctx.trace
  else Span.with_span ctx.trace "bench.untraced" (fun () -> f Span.disabled)

let timed f =
  let t0 = Span.now_s () in
  let r = f () in
  (r, Span.now_s () -. t0)

(* ------------------------------------------------------------------ *)
(* Failure accounting and the oracle                                    *)
(* ------------------------------------------------------------------ *)

type tally = { mutable attempted : int; mutable failed : int; mutable notes : string list }

let tally () = { attempted = 0; failed = 0; notes = [] }

let record t = function
  | Ok () -> t.attempted <- t.attempted + 1
  | Error msg ->
      t.attempted <- t.attempted + 1;
      t.failed <- t.failed + 1;
      if List.length t.notes < 8 then t.notes <- msg :: t.notes

(* Max |error| of [got] against the oracle's outputs, or why the op
   fails: a missing output, an error above the tolerance, or, with
   [argmax], a top class that disagrees with the oracle's. The mini
   models' random weights give no class margin, so near-ties flip within
   the tolerance there; the argmax check is for the full-size model. *)
let check_outputs ?(argmax = false) ~want ~got () =
  List.fold_left
    (fun acc (name, w) ->
      Result.bind acc (fun worst ->
          match List.assoc_opt name got with
          | None -> Error (Printf.sprintf "output %s missing" name)
          | Some h when Array.length h <> Array.length w ->
              Error (Printf.sprintf "output %s has %d words, oracle %d" name (Array.length h) (Array.length w))
          | Some h ->
              let err = Tensor.vec_max_abs_diff w h in
              if not (err <= tolerance) then
                Error (Printf.sprintf "output %s: max |error| %g above %g" name err tolerance)
              else if argmax && Stats.argmax h <> Stats.argmax w then
                Error
                  (Printf.sprintf "output %s: argmax %d, oracle %d" name (Stats.argmax h)
                     (Stats.argmax w))
              else Ok (Float.max worst err)))
    (Ok 0.0) want

let graph_inputs g rng =
  List.map
    (fun (n : Graph.node) ->
      match n.op with
      | Graph.Input name -> (name, Tensor.vec_rand rng n.len 0.8)
      | _ -> invalid_arg "graph_inputs: not an input node")
    (Graph.inputs g)

(* ------------------------------------------------------------------ *)
(* Simulated-metric sample                                              *)
(* ------------------------------------------------------------------ *)

(* Per-inference simulated costs and errors of the fixed prefix, each
   tagged with the index of the workload program that served it. *)
type inference = { prog : int; cycles : int; energy_pj : float; latency : int; err : float }

type sample = { mutable infs : inference list }

let sample () = { infs = [] }

let add_sample s ~prog ~cycles ~energy_pj ~latency ~err =
  s.infs <- { prog; cycles; energy_pj; latency; err } :: s.infs

let counts_of_node node =
  Array.of_list (List.map (Energy.count (Node.energy node)) Energy.all_categories)

let counts_of_cluster c = Array.of_list (List.map snd (Cluster.energy_counts c))

let category_index cat =
  let rec go i = function
    | c :: _ when c = cat -> i
    | _ :: rest -> go (i + 1) rest
    | [] -> invalid_arg "category_index"
  in
  go 0 Energy.all_categories

let count_delta cat ~before ~after =
  let i = category_index cat in
  after.(i) - before.(i)

(* Dynamic energy from integer event-count deltas, as the runtime
   computes it, so it does not depend on what the node served before. *)
let dynamic_pj config ~before ~after =
  List.fold_left
    (fun acc cat ->
      acc +. (Float.of_int (count_delta cat ~before ~after) *. Energy.per_event_pj config cat))
    0.0 Energy.all_categories

(* The highest Poisson rate at which a [fleet_nodes]-node fleet serving
   an even mix of [programs] (each with its measured cycles per
   inference) keeps p99 latency within [limit_us], below full
   utilization: bisection to 1% on the pure phase-2 schedule. The
   arrival trace is fixed rather than drawn from the run's seed, so the
   number moves only when the per-inference costs do. *)
let max_rps_at_p99 ctx ~limit_us (programs : (Program.t * int) array) =
  let freq = (fst programs.(0)).Program.config.Config.frequency_ghz in
  let limit = limit_us *. freq *. 1e3 in
  let models = Array.mapi (fun i (p, _) -> Engine.model ~name:(string_of_int i) p) programs in
  let config = { Engine.nodes = fleet_nodes; max_batch = fleet_max_batch; input_seed = 0 } in
  let arrivals = if ctx.smoke then 1000 else 20_000 in
  let feasible rate =
    let wl =
      Engine.synthesize ~models:(Array.length models)
        (Puma_serve.Arrival.Poisson { rate_rps = rate })
        ~seed:1 ~duration_s:(Float.of_int arrivals /. rate) ~frequency_ghz:freq
    in
    let costs =
      Array.map
        (fun (a : Engine.arrival) ->
          { Engine.cycles = snd programs.(a.model); energy_pj = 0.0; outputs = [] })
        wl
    in
    let r = Engine.schedule config models wl costs in
    let lat =
      Array.map (fun (s : Engine.served) -> Float.of_int (s.finish_cycle - s.arrival_cycle)) r.served
    in
    Array.length lat > 0 && r.utilization < 1.0 && Stats.percentile lat 99.0 <= limit
  in
  let mean_cost =
    Array.fold_left (fun acc (_, c) -> acc +. Float.of_int c) 0.0 programs
    /. Float.of_int (Array.length programs)
  in
  let capacity = Float.of_int fleet_nodes *. freq *. 1e9 /. mean_cost in
  let lo = ref (capacity *. 0.01) and hi = ref capacity in
  if not (feasible !lo) then
    failwith "sim_max_rps_at_p99: the latency limit is unmet even at 1% of capacity";
  while !hi /. !lo > 1.01 do
    let mid = sqrt (!lo *. !hi) in
    if feasible mid then lo := mid else hi := mid
  done;
  !lo

(* Simulated costs average over the workload's programs with equal
   weight, so a seed's request mix does not move them; latency
   percentiles and the error pool every inference of the prefix. *)
let by_program (s : sample) ~program_of =
  List.sort_uniq compare (List.map (fun x -> x.prog) s.infs)
  |> List.map (fun i -> (program_of i, List.filter (fun x -> x.prog = i) s.infs))

let median_cycles xs = Summary.median (List.map (fun x -> Float.of_int x.cycles) xs)

(* One chunk of the measured loop: whether it was traced, the ops it
   completed and their timed host seconds. *)
type chunk = { traced : bool; ops : int; secs : float }

let end_to_end ctx ~setup ~chunks ~(s : sample) ~limit_us ~program_of =
  if s.infs = [] then failwith "no inference of the fixed prefix succeeded";
  let per_prog = by_program s ~program_of in
  (* Mean as the first value plus the mean deviation from it: exact when
     every value is equal, so a constant per-inference cost averages to
     itself whatever the sample size. *)
  let mean f xs =
    let x0 = f (List.hd xs) in
    x0 +. (List.fold_left (fun acc x -> acc +. (f x -. x0)) 0.0 xs /. Float.of_int (List.length xs))
  in
  let over_programs f = mean (fun (_, xs) -> mean f xs) per_prog in
  let pooled f = Array.of_list (List.map f s.infs) in
  let costs = Array.of_list (List.map (fun (p, xs) -> (p, Float.to_int (median_cycles xs))) per_prog) in
  [
    ("setup_s", Summary.median setup);
    ("host_ops_per_s", Summary.median (List.map (fun c -> Float.of_int c.ops /. c.secs) chunks));
    ("sim_cycles_per_inf", over_programs (fun x -> Float.of_int x.cycles));
    ("sim_energy_uj_per_inf", over_programs (fun x -> x.energy_pj) /. 1e6);
    ("sim_p50_cycles", Stats.percentile (pooled (fun x -> Float.of_int x.latency)) 50.0);
    ("sim_p99_cycles", Stats.percentile (pooled (fun x -> Float.of_int x.latency)) 99.0);
    ( "sim_max_rps_at_p99",
      Span.with_span ctx.trace "serve.capacity" (fun () -> max_rps_at_p99 ctx ~limit_us costs) );
    ("output_err_mean", Stats.mean (pooled (fun x -> x.err)));
  ]

(* ------------------------------------------------------------------ *)
(* Compilation, replayed pass by pass when traced                       *)
(* ------------------------------------------------------------------ *)

type compiled = {
  program : Program.t;
  instructions : int;
  mvm_instructions : int;
  spilled_frac : float;
  cross_tile : int;
  cross_node : int;
  channels_repaired : int;
  equiv_steps : int;
  nodes_used : int;
}

let equiv_steps = function Some (e : Equiv.result) -> e.steps | None -> 0

let of_result (r : Compile.result) =
  {
    program = r.program;
    instructions = r.codegen_stats.total_instructions;
    mvm_instructions = r.num_mvm_instructions;
    spilled_frac = r.codegen_stats.spilled_fraction;
    cross_tile = r.edge_stats.cross_tile;
    cross_node = r.edge_stats.cross_node;
    channels_repaired = r.sequencing_stats.channels_repaired;
    equiv_steps = equiv_steps r.equiv;
    nodes_used = r.nodes_used;
  }

(* [Compile.compile]'s pass sequence, called from outside with a span per
   pass. The digest check against untraced compiles makes any drift from
   the library's sequence fail the run. Two deliberate differences: graph
   validation is counted in [compiler.optimize] and reference extraction
   in [analysis.equiv]; and [Analyze] gets no [layer_of] provenance, which
   only annotates E-IMEM messages. *)
let replay spans (options : Compile.options) (config : Config.t) g0 =
  let sp name f = Span.with_span spans name f in
  let validate g =
    match Graph.validate g with Ok () -> () | Error e -> failwith ("invalid graph: " ^ e)
  in
  let g =
    sp "compiler.optimize" (fun () ->
        validate g0;
        if options.optimize_graph then begin
          let g, _ = Optimize.run g0 in
          validate g;
          g
        end
        else g0)
  in
  let lg = sp "compiler.tiling" (fun () -> Tiling.lower ~dim:config.mvmu_dim g) in
  let part =
    sp "compiler.partition" (fun () ->
        Partition.partition ?cluster:options.cluster config options.partition_strategy lg)
  in
  let sched = sp "compiler.schedule" (fun () -> Schedule.build ~coalesce:options.coalesce_mvms lg part) in
  let program, cg, provenance =
    sp "compiler.codegen" (fun () ->
        Codegen.generate config ~wrap_batch_loop:options.wrap_batch_loop g lg part sched)
  in
  let program, seq =
    sp "compiler.sequencing" (fun () ->
        if options.repair_ordering then
          let p, _, s = Sequencing.repair program ~provenance in
          (p, s)
        else (program, Sequencing.no_repair))
  in
  let program =
    match options.cluster with
    | None -> program
    | Some _ ->
        let target = part.nodes_used * part.tiles_per_node in
        let have = Array.length program.tiles in
        if have >= target then program
        else
          let empty i =
            {
              Program.tile_index = i;
              core_code = Array.init config.cores_per_tile (fun _ -> [||]);
              tile_code = [||];
              mvmu_images = [];
            }
          in
          { program with tiles = Array.init target (fun i -> if i < have then program.tiles.(i) else empty i) }
  in
  let equiv =
    sp "analysis.equiv" (fun () ->
        let reference =
          Lgraph.to_reference ~matrix_name:(fun m -> (Graph.matrix g m).mat_name) lg
        in
        if options.check_equiv then Some (Equiv.check ~reference program) else None)
  in
  let analysis =
    sp "analysis.analyze" (fun () ->
        if options.static_analysis then
          Analyze.program ~ranges:true ~resources:true ~order:true program
        else Analyze.make_report [])
  in
  let report =
    Analyze.make_report
      (List.sort Diag.compare
         (analysis.diags @ match equiv with Some e -> e.diags | None -> []))
  in
  if options.analysis_gate && Analyze.has_errors report then
    failwith
      (Format.asprintf "Compile.compile: generated program fails static analysis:@.%a"
         Analyze.pp report);
  let edges = Partition.edge_stats part lg in
  {
    program;
    instructions = cg.total_instructions;
    mvm_instructions = Schedule.num_mvm_instructions sched;
    spilled_frac = cg.spilled_fraction;
    cross_tile = edges.cross_tile;
    cross_node = edges.cross_node;
    channels_repaired = seq.channels_repaired;
    equiv_steps = equiv_steps equiv;
    nodes_used = part.nodes_used;
  }

let compile spans options config g =
  if Span.enabled spans then replay spans options config g
  else of_result (Compile.compile ~options config g)

let digest (p : Program.t) = Digest.to_hex (Digest.bytes (Puma_isa.Program_io.to_bytes p))

(* Same (model, dim) must compile to the same program every time, traced
   or not. *)
let check_digest digests key p =
  let d = digest p in
  match Hashtbl.find_opt digests key with
  | None ->
      Hashtbl.add digests key d;
      Ok ()
  | Some d0 when d0 = d -> Ok ()
  | Some _ -> Error (Printf.sprintf "%s: program digest changed between compiles" key)

let zeros program = List.map (fun (n, len) -> (n, Array.make len 0.0)) (Batch.input_lengths program)

(* [Batch.warmed_node] with the crossbar programming and the warm-up run
   as separate spans. *)
let warmed_node spans program =
  let node = Span.with_span spans "sim.create" (fun () -> Node.create program) in
  Span.with_span spans "sim.warmup" (fun () -> ignore (Node.run node ~inputs:(zeros program)));
  node

let zoo =
  [
    ("mlp", `Net Models.mini_mlp);
    ("lstm", `Net Models.mini_lstm);
    ("rnn", `Net Models.mini_rnn);
    ("bm", `Graph Models.mini_bm);
    ("rbm", `Graph Models.mini_rbm);
  ]

let build spans = function
  | `Net n -> Span.with_span spans "nn.build_graph" (fun () -> Network.build_graph n)
  | `Graph g -> g

(* ------------------------------------------------------------------ *)
(* Per-layer counters                                                   *)
(* ------------------------------------------------------------------ *)

(* Simulator counters of single calls, from spans around each run. *)
type probe = {
  mutable run_s : float list;
  mutable infs : int;
  mutable instrs : int;
  mutable fast : int;
  mutable mvm : int;
  mutable noc : int;
  mutable link_words : int;
  mutable observed_s : float list;  (** Same runs with a profiler attached. *)
  mutable busy : int;
  mutable stalled : int;
  mutable stall_cycles : (Puma_arch.Core.stall * int) list;
  mutable observed_infs : int;
}

let probe () =
  {
    run_s = [];
    infs = 0;
    instrs = 0;
    fast = 0;
    mvm = 0;
    noc = 0;
    link_words = 0;
    observed_s = [];
    busy = 0;
    stalled = 0;
    stall_cycles = [];
    observed_infs = 0;
  }

let add_counts pr ~before ~after =
  pr.infs <- pr.infs + 1;
  pr.mvm <- pr.mvm + count_delta Energy.Mvm ~before ~after;
  pr.noc <- pr.noc + count_delta Energy.Noc ~before ~after

(* Trace mode only: run a sample of requests on warmed nodes, first
   unobserved and then with a profiler attached, recording per-call host
   time and the simulator's own counters. *)
let probe_nodes spans pr (items : (Program.t * (string * float array) list list) list) =
  List.iteri
    (fun k (program, inputs) ->
      let node = warmed_node spans program in
      List.iteri
        (fun i inputs ->
          let before = counts_of_node node and r0 = Node.retired_instructions node in
          let _, dt =
            timed (fun () -> Span.with_span spans ~req:((k * 1000) + i) "sim.run" (fun () -> Node.run node ~inputs))
          in
          pr.run_s <- dt :: pr.run_s;
          pr.instrs <- pr.instrs + Node.retired_instructions node - r0;
          if Node.last_run_fast node then pr.fast <- pr.fast + 1;
          add_counts pr ~before ~after:(counts_of_node node))
        inputs;
      let prof = Profile.create () in
      Profile.attach prof node;
      List.iteri
        (fun i inputs ->
          let _, dt =
            timed (fun () ->
                Span.with_span spans ~req:((k * 1000) + i) "profile.run" (fun () -> Node.run node ~inputs))
          in
          pr.observed_s <- dt :: pr.observed_s)
        inputs;
      let t = Profile.totals prof in
      pr.busy <- pr.busy + t.busy_cycles;
      pr.stalled <- pr.stalled + t.stalled_cycles;
      pr.observed_infs <- pr.observed_infs + List.length inputs;
      pr.stall_cycles <-
        List.map
          (fun (st, n) -> (st, n + Option.value ~default:0 (List.assoc_opt st pr.stall_cycles)))
          t.by_stall;
      Profile.detach node)
    items

(* Trace mode only: the exact MVM kernel alone, at the workload's
   crossbar dimension. *)
let kernel_ns ctx dim =
  if not (Span.enabled ctx.trace) then 0.0
  else
    Span.with_span ctx.trace "xbar.kernel" (fun () ->
        let rng = Rng.create 3 in
        let stack = Bitslice.create (config_of_dim dim) (Tensor.mat_rand rng dim dim 0.8) in
        let x =
          Array.map
            (fun v -> Puma_util.Fixed.to_raw (Puma_util.Fixed.of_float v))
            (Tensor.vec_rand rng dim 0.8)
        in
        let out = Array.make dim 0 in
        let iters = 4000 in
        let (), dt =
          timed (fun () ->
              for _ = 1 to iters do
                Bitslice.mvm_raw_exact_into stack x out
              done)
        in
        dt /. Float.of_int iters *. 1e9)

(* Workload-specific inputs of the per-layer metrics. *)
type layers = {
  compiled : compiled list;  (** One per distinct program. *)
  lb : (float * float) list;  (** Per program: (lower bound, simulated) cycles. *)
  probe : probe;
  kernel_ns : float;  (** Per exact-kernel MVM. *)
  serve : (float * float * float * float * float) option;
      (** phase 1 s, phase 2 s, utilization, mean queue, rejected share. *)
  batch_s : float;
  overhead : float;
}

(* Trace mode only: each sampled program's static cycle lower bound next
   to its simulated cycles. *)
let lower_bounds ctx (s : sample) ~program_of =
  if not (Span.enabled ctx.trace) then []
  else
    List.map
      (fun (p, xs) ->
        let lb = Span.with_span ctx.trace "analysis.resource" (fun () -> Resource.estimate p) in
        (Float.of_int lb.cycle_lower_bound, median_cycles xs))
      (by_program s ~program_of)

(* Traced over untraced host time per op, minus 1. *)
let overhead chunks =
  let side t =
    List.filter_map (fun c -> if c.traced = t then Some (c.secs /. Float.of_int c.ops) else None) chunks
  in
  match (side true, side false) with
  | [], _ | _, [] -> 0.0
  | t, u -> (Summary.median t /. Summary.median u) -. 1.0

let layer_metrics ~selfs (l : layers) =
  let per_call name =
    match List.assoc_opt name selfs with
    | Some (s : Span.self) when s.calls > 0 -> s.self_s /. Float.of_int s.calls
    | _ -> 0.0
  in
  let mean f xs =
    match xs with [] -> 0.0 | _ -> Stats.mean (Array.of_list (List.map f xs))
  in
  let cm f = mean (fun c -> Float.of_int (f c)) l.compiled in
  let pr = l.probe in
  let per_inf n = if pr.infs = 0 then 0.0 else Float.of_int n /. Float.of_int pr.infs in
  let per_obs n =
    if pr.observed_infs = 0 then 0.0 else Float.of_int n /. Float.of_int pr.observed_infs
  in
  let run_ms p = match pr.run_s with [] -> 0.0 | xs -> 1e3 *. Stats.percentile (Array.of_list xs) p in
  let mean_run_s = mean Fun.id pr.run_s in
  let stall st = per_obs (Option.value ~default:0 (List.assoc_opt st pr.stall_cycles)) in
  let p1, p2, util, queue, rejected = Option.value ~default:(0., 0., 0., 0., 0.) l.serve in
  [
    ("nn.build_graph_s", per_call "nn.build_graph");
    ("compiler.optimize_s", per_call "compiler.optimize");
    ("compiler.tiling_s", per_call "compiler.tiling");
    ("compiler.partition_s", per_call "compiler.partition");
    ("compiler.schedule_s", per_call "compiler.schedule");
    ("compiler.codegen_s", per_call "compiler.codegen");
    ("compiler.sequencing_s", per_call "compiler.sequencing");
    ("compiler.instructions", cm (fun c -> c.instructions));
    ("compiler.mvm_instructions", cm (fun c -> c.mvm_instructions));
    ("compiler.spilled_frac", mean (fun c -> c.spilled_frac) l.compiled);
    ("compiler.cross_tile_edges", cm (fun c -> c.cross_tile));
    ("compiler.cross_node_edges", cm (fun c -> c.cross_node));
    ("compiler.channels_repaired", cm (fun c -> c.channels_repaired));
    ("analysis.equiv_s", per_call "analysis.equiv");
    ("analysis.analyze_s", per_call "analysis.analyze");
    ("analysis.shards_s", per_call "analysis.shards");
    ("analysis.equiv_steps", cm (fun c -> c.equiv_steps));
    ("analysis.lb_cycles", mean fst l.lb);
    ("analysis.sim_over_lb", mean (fun (lb, sim) -> sim /. lb) l.lb);
    ("sim.create_s", per_call "sim.create");
    ("sim.warmup_s", per_call "sim.warmup");
    ("sim.run_ms_p50", run_ms 50.0);
    ("sim.run_ms_p99", run_ms 99.0);
    ("sim.instrs_per_inf", per_inf pr.instrs);
    ( "sim.host_ns_per_instr",
      if pr.instrs = 0 then 0.0 else 1e9 *. List.fold_left ( +. ) 0.0 pr.run_s /. Float.of_int pr.instrs );
    ("sim.fast_frac", per_inf pr.fast);
    ( "sim.busy_frac",
      if pr.busy + pr.stalled = 0 then 0.0
      else Float.of_int pr.busy /. Float.of_int (pr.busy + pr.stalled) );
    ("sim.stall_smem_read_cycles_per_inf", stall Puma_arch.Core.Stall_smem_read);
    ("sim.stall_smem_write_cycles_per_inf", stall Puma_arch.Core.Stall_smem_write);
    ("sim.stall_recv_fifo_cycles_per_inf", stall Puma_arch.Core.Stall_recv_fifo);
    ("xbar.mvm_ops_per_inf", per_inf pr.mvm);
    ("xbar.kernel_ns_per_mvm", l.kernel_ns);
    ( "xbar.kernel_share_est",
      if mean_run_s = 0.0 then 0.0 else per_inf pr.mvm *. l.kernel_ns *. 1e-9 /. mean_run_s );
    ("noc.hop_words_per_inf", per_inf pr.noc);
    ("fabric.link_words_per_inf", per_inf pr.link_words);
    ("runtime.batch_s", l.batch_s);
    ("serve.phase1_s", p1);
    ("serve.phase2_s", p2);
    ("serve.utilization", util);
    ("serve.queue_mean", queue);
    ("serve.rejected_frac", rejected);
    ( "profile.overhead_x",
      match pr.observed_s with [] -> 0.0 | obs -> Summary.median obs /. Summary.median pr.run_s );
    ("trace.overhead_frac", l.overhead);
  ]

type outcome = {
  tally : tally;
  samples : int;  (** Inferences in the simulated-metric prefix. *)
  e2e : (string * float) list;  (** Without [peak_rss_mb], which the caller reads last. *)
  layers : layers;
}

(* Every chunk and set-up starts from a collected heap, so garbage one
   left behind is not charged to the next one's timings, and peak RSS
   does not depend on where major collections happened to fall. *)
let collect ctx = Span.with_span ctx.trace "bench.gc" Gc.full_major

(* Run [chunk k] for k = 0, 1, ... until the budget is spent, but at least
   [min_chunks] times (the simulated-metric prefix; two in a traced run,
   so both a traced and an untraced chunk exist). *)
let loop ctx ~min_chunks chunk =
  let min_chunks = if Span.enabled ctx.trace then max 2 min_chunks else min_chunks in
  let t0 = Span.now_s () in
  let k = ref 0 in
  while !k < min_chunks || Span.now_s () -. t0 < ctx.seconds do
    collect ctx;
    chunk !k;
    incr k
  done

(* ------------------------------------------------------------------ *)
(* zoo-compile                                                          *)
(* ------------------------------------------------------------------ *)

let zoo_compile ctx =
  let pairs =
    Array.of_list (List.concat_map (fun dim -> List.map (fun (n, m) -> (n, dim, m)) zoo) [ 64; 128 ])
  in
  let t = tally () and s = sample () and digests = Hashtbl.create 16 in
  let setup = ref [] and chunks = ref [] in
  let last = Array.make (Array.length pairs) None in
  let prefix = if ctx.smoke then 1 else 10 in
  loop ctx ~min_chunks:prefix (fun r ->
      with_chunk ctx r (fun spans ->
          let setup_s = ref 0.0 and op_s = ref 0.0 in
          Array.iteri
            (fun p (name, dim, m) ->
              let key = Printf.sprintf "%s@%d" name dim in
              let config = config_of_dim dim in
              let built, dt =
                timed (fun () ->
                    try
                      let g = build spans m in
                      let c = compile spans Compile.default_options config g in
                      let node = Span.with_span spans "sim.create" (fun () -> Node.create c.program) in
                      Ok (g, c, node)
                    with (Failure msg | Invalid_argument msg) -> Error (key ^ ": " ^ msg))
              in
              setup_s := !setup_s +. dt;
              op_s := !op_s +. dt;
              match built with
              | Error msg -> record t (Error msg)
              | Ok (g, c, node) ->
                  let inputs =
                    Span.with_span spans "bench.inputs" (fun () ->
                        graph_inputs g (Rng.create (sub_seed ctx ((r * 100) + p))))
                  in
                  let before = counts_of_node node in
                  let out, dt =
                    timed (fun () ->
                        try
                          Ok (Span.with_span spans ~req:p "sim.run" (fun () -> Node.run node ~inputs))
                        with Node.Deadlock msg | Failure msg -> Error msg)
                  in
                  op_s := !op_s +. dt;
                  Span.with_span spans "bench.check" (fun () ->
                      let verdict =
                        Result.bind out (fun got ->
                            Result.bind (check_digest digests key c.program) (fun () ->
                                check_outputs ~want:(Puma.reference g inputs) ~got ()))
                        |> Result.map_error (fun e -> key ^ ": " ^ e)
                      in
                      (match verdict with
                      | Ok err when r < prefix ->
                          let cycles = Node.cycles node in
                          add_sample s ~prog:p ~cycles
                            ~energy_pj:(dynamic_pj config ~before ~after:(counts_of_node node))
                            ~latency:cycles ~err
                      | _ -> ());
                      last.(p) <- Some (c, inputs);
                      record t (Result.map ignore verdict)))
            pairs;
          setup := !setup_s :: !setup;
          chunks := { traced = traced ctx r; ops = Array.length pairs; secs = !op_s } :: !chunks));
  let program_of p = (fst (Option.get last.(p))).program in
  let pr = probe () in
  if Span.enabled ctx.trace then
    probe_nodes ctx.trace pr
      (List.filter_map
         (Option.map (fun ((c : compiled), inputs) -> (c.program, [ inputs; inputs ])))
         (Array.to_list last));
  {
    tally = t;
    samples = List.length s.infs;
    e2e = end_to_end ctx ~setup:!setup ~chunks:!chunks ~s ~limit_us:100.0 ~program_of;
    layers =
      {
        compiled = List.filter_map (Option.map fst) (Array.to_list last);
        lb = lower_bounds ctx s ~program_of;
        probe = pr;
        kernel_ns = kernel_ns ctx 64;
        serve = None;
        batch_s = 0.0;
        overhead = overhead !chunks;
      };
  }

(* ------------------------------------------------------------------ *)
(* The serving fleet (zoo-serve, zoo-observed)                          *)
(* ------------------------------------------------------------------ *)

let fleet_config = config_of_dim 64

type fleet = {
  graphs : Graph.t array;
  compiled : compiled array;
  models : Engine.model array;
}

(* Set the fleet up [n] times (graph → compiled, gated program → warmed
   node, per model); every set-up must produce the same programs. *)
let setup_fleet ctx ~n =
  let digests = Hashtbl.create 8 in
  let times = ref [] and fleet = ref None in
  for k = 0 to n - 1 do
    collect ctx;
    with_chunk ctx k (fun spans ->
        let built, dt =
          timed (fun () ->
              List.map
                (fun (name, m) ->
                  let g = build spans m in
                  let c = compile spans Compile.default_options fleet_config g in
                  ignore (warmed_node spans c.program);
                  (name, g, c))
                zoo)
        in
        times := dt :: !times;
        List.iter
          (fun (name, _, (c : compiled)) ->
            match check_digest digests name c.program with
            | Ok () -> ()
            | Error e -> failwith e)
          built;
        fleet :=
          Some
            {
              graphs = Array.of_list (List.map (fun (_, g, _) -> g) built);
              compiled = Array.of_list (List.map (fun (_, _, c) -> c) built);
              models =
                Array.of_list
                  (List.map (fun (name, _, (c : compiled)) -> Engine.model ~name c.program) built);
            })
  done;
  (Option.get !fleet, !times)

let episode_workload ctx (fleet : fleet) ~episode_s e =
  let wl =
    Engine.synthesize ~models:(Array.length fleet.models)
      (Puma_serve.Arrival.Poisson { rate_rps = serve_rate_rps })
      ~seed:(sub_seed ctx (1000 + e)) ~duration_s:episode_s
      ~frequency_ghz:fleet_config.frequency_ghz
  in
  let config =
    { Engine.nodes = fleet_nodes; max_batch = fleet_max_batch; input_seed = sub_seed ctx (2000 + e) }
  in
  (config, wl)

(* Trace mode: every 16th request of the first episode, per model. *)
let probe_fleet ctx (fleet : fleet) pr (requests : Batch.request list array) =
  if Span.enabled ctx.trace then
    probe_nodes ctx.trace pr
      (Array.to_list
         (Array.mapi
            (fun m (c : compiled) ->
              ( c.program,
                List.filter_map
                  (fun (r : Batch.request) -> if r.index mod 16 = 0 then Some r.inputs else None)
                  requests.(m) ))
            fleet.compiled))

(* ------------------------------------------------------------------ *)
(* zoo-serve                                                            *)
(* ------------------------------------------------------------------ *)

let zoo_serve ctx =
  let fleet, setup = setup_fleet ctx ~n:(if ctx.smoke then 1 else 5) in
  let episode_s = if ctx.smoke then 0.0005 else 0.01 in
  let prefix = if ctx.smoke then 1 else 6 in
  let t = tally () and s = sample () and pr = probe () in
  let chunks = ref [] and first = ref [||] in
  let serve_stats = ref [] in
  loop ctx ~min_chunks:prefix (fun e ->
      let config, wl = episode_workload ctx fleet ~episode_s e in
      with_chunk ctx e (fun spans ->
          let report, dt =
            timed (fun () -> Span.with_span spans "serve.run" (fun () -> Engine.run ~domains:1 config fleet.models wl))
          in
          chunks := { traced = traced ctx e; ops = report.arrivals; secs = dt } :: !chunks;
          let requests =
            Span.with_span spans "bench.inputs" (fun () ->
                Array.init (Array.length fleet.models) (fun m -> Engine.requests_for config fleet.models wl m))
          in
          if e = 0 then first := requests;
          if Span.enabled spans then begin
            (* Phase 2 re-timed on the measured costs; the rest of the
               run is phase 1. *)
            let costs = Array.make (Array.length wl) { Engine.cycles = 1; energy_pj = 0.0; outputs = [] } in
            Array.iter
              (fun (sv : Engine.served) ->
                costs.(sv.arrival) <- { Engine.cycles = sv.cycles; energy_pj = sv.energy_pj; outputs = sv.outputs })
              report.served;
            let again, p2 =
              timed (fun () -> Span.with_span spans "serve.schedule" (fun () -> Engine.schedule config fleet.models wl costs))
            in
            if again.makespan_cycles <> report.makespan_cycles then failwith "serve: schedule is not deterministic";
            serve_stats :=
              ( dt -. p2,
                p2,
                report.utilization,
                Array.fold_left (fun acc (m : Engine.model_stats) -> acc +. m.mean_queue_depth) 0.0 report.models,
                Float.of_int (Array.length report.rejections) /. Float.of_int (max 1 report.arrivals) )
              :: !serve_stats
          end;
          Span.with_span spans "bench.check" (fun () ->
              let reqs = Array.map Array.of_list requests in
              Array.iter
                (fun (sv : Engine.served) ->
                  let inputs = reqs.(sv.model).(sv.model_request).inputs in
                  let verdict =
                    Result.map_error
                      (fun e -> Printf.sprintf "%s request %d: %s" fleet.models.(sv.model).name sv.model_request e)
                      (check_outputs ~want:(Puma.reference fleet.graphs.(sv.model) inputs) ~got:sv.outputs ())
                  in
                  (match verdict with
                  | Ok err when e < prefix ->
                      add_sample s ~prog:sv.model ~cycles:sv.cycles ~energy_pj:sv.energy_pj
                        ~latency:(sv.finish_cycle - sv.arrival_cycle) ~err
                  | _ -> ());
                  record t (Result.map ignore verdict))
                report.served;
              Array.iter
                (fun (rj : Engine.rejection) ->
                  record t (Error (Printf.sprintf "arrival %d rejected" rj.arrival)))
                report.rejections)));
  probe_fleet ctx fleet pr !first;
  let program_of m = fleet.compiled.(m).program in
  let med f = match List.map f !serve_stats with [] -> 0.0 | l -> Summary.median l in
  {
    tally = t;
    samples = List.length s.infs;
    e2e = end_to_end ctx ~setup ~chunks:!chunks ~s ~limit_us:100.0 ~program_of;
    layers =
      {
        compiled = Array.to_list fleet.compiled;
        lb = lower_bounds ctx s ~program_of;
        probe = pr;
        kernel_ns = kernel_ns ctx 64;
        serve =
          Some
            ( med (fun (p1, _, _, _, _) -> p1),
              med (fun (_, p2, _, _, _) -> p2),
              med (fun (_, _, u, _, _) -> u),
              med (fun (_, _, _, q, _) -> q),
              med (fun (_, _, _, _, r) -> r) );
        batch_s = 0.0;
        overhead = overhead !chunks;
      };
  }

(* ------------------------------------------------------------------ *)
(* zoo-observed                                                         *)
(* ------------------------------------------------------------------ *)

let zoo_observed ctx =
  let fleet, setup = setup_fleet ctx ~n:(if ctx.smoke then 1 else 5) in
  let episode_s = if ctx.smoke then 0.0002 else 0.0025 in
  let prefix = if ctx.smoke then 1 else 6 in
  let t = tally () and s = sample () and pr = probe () in
  let chunks = ref [] and batch_s = ref [] and first = ref [||] in
  loop ctx ~min_chunks:prefix (fun e ->
      let config, wl = episode_workload ctx fleet ~episode_s e in
      with_chunk ctx e (fun spans ->
          let requests =
            Span.with_span spans "bench.inputs" (fun () ->
                Array.init (Array.length fleet.models) (fun m -> Engine.requests_for config fleet.models wl m))
          in
          if e = 0 then first := requests;
          let results =
            Array.mapi
              (fun m reqs ->
                let (resps, _), dt =
                  timed (fun () ->
                      Span.with_span spans "runtime.batch" (fun () ->
                          Batch.run ~domains:1 ~profile:true fleet.compiled.(m).program reqs))
                in
                (resps, dt))
              requests
          in
          let n = Array.fold_left (fun acc r -> acc + List.length r) 0 requests in
          let dt = Array.fold_left (fun acc (_, d) -> acc +. d) 0.0 results in
          if Span.enabled spans then
            Array.iter (fun (_, d) -> batch_s := d :: !batch_s) results;
          chunks := { traced = traced ctx e; ops = n; secs = dt } :: !chunks;
          Span.with_span spans "bench.check" (fun () ->
              Array.iteri
                (fun m ((resps : Batch.response array), _) ->
                  let name = fleet.models.(m).name in
                  (* Observing must not change the run: the unobserved
                     runtime on every 16th request gives the same bits. *)
                  let sampled =
                    List.filter (fun (r : Batch.request) -> r.index mod 16 = 0) requests.(m)
                  in
                  let plain, _ = Batch.run ~domains:1 fleet.compiled.(m).program sampled in
                  let mismatched = Hashtbl.create 8 in
                  Array.iter
                    (fun (u : Batch.response) ->
                      let o = resps.(u.index) in
                      if o.outputs <> u.outputs || o.cycles <> u.cycles || o.dynamic_energy_pj <> u.dynamic_energy_pj
                      then Hashtbl.replace mismatched u.index ())
                    plain;
                  List.iter
                    (fun (r : Batch.request) ->
                      let o = resps.(r.index) in
                      let verdict =
                        if Hashtbl.mem mismatched r.index then Error "profiled run differs from the plain run"
                        else check_outputs ~want:(Puma.reference fleet.graphs.(m) r.inputs) ~got:o.outputs ()
                      in
                      let verdict = Result.map_error (Printf.sprintf "%s request %d: %s" name r.index) verdict in
                      (match verdict with
                      | Ok err when e < prefix ->
                          add_sample s ~prog:m ~cycles:o.cycles ~energy_pj:o.dynamic_energy_pj ~latency:o.cycles ~err
                      | _ -> ());
                      record t (Result.map ignore verdict))
                    requests.(m))
                results)));
  probe_fleet ctx fleet pr !first;
  let program_of m = fleet.compiled.(m).program in
  {
    tally = t;
    samples = List.length s.infs;
    e2e = end_to_end ctx ~setup ~chunks:!chunks ~s ~limit_us:100.0 ~program_of;
    layers =
      {
        compiled = Array.to_list fleet.compiled;
        lb = lower_bounds ctx s ~program_of;
        probe = pr;
        kernel_ns = kernel_ns ctx 64;
        serve = None;
        batch_s = (match !batch_s with [] -> 0.0 | l -> Summary.median l);
        overhead = overhead !chunks;
      };
  }

(* ------------------------------------------------------------------ *)
(* mlpl4-x2                                                             *)
(* ------------------------------------------------------------------ *)

let cluster_nodes = 2

let mlpl4_x2 ctx =
  let config = Config.sweetspot in
  let options =
    { Compile.default_options with cluster = Some { Partition.nodes = cluster_nodes; scheme = Pipelined } }
  in
  let digests = Hashtbl.create 1 in
  let setups = if ctx.smoke then 1 else 3 in
  let times = ref [] and ready = ref None in
  for k = 0 to setups - 1 do
    ready := None;
    collect ctx;
    with_chunk ctx k (fun spans ->
        let built, dt =
          timed (fun () ->
              let g = build spans (`Net Models.mlp_l4) in
              let c = compile spans options config g in
              let shards =
                Span.with_span spans "analysis.shards" (fun () -> Cluster.analyze_shards ~nodes:c.nodes_used c.program)
              in
              List.iter
                (fun (sr : Cluster.shard_report) ->
                  if Analyze.has_errors sr.report then
                    failwith (Printf.sprintf "node %d fails its gates:\n%s" sr.node (Analyze.to_string sr.report)))
                shards;
              let cluster =
                Span.with_span spans "sim.create" (fun () -> Cluster.create ~nodes:c.nodes_used c.program)
              in
              Span.with_span spans "sim.warmup" (fun () -> ignore (Cluster.run cluster ~inputs:(zeros c.program)));
              (g, c, cluster))
        in
        times := dt :: !times;
        let _, c, _ = built in
        (match check_digest digests "mlpl4" c.program with Ok () -> () | Error e -> failwith e);
        ready := Some built)
  done;
  let g, c, cluster = Option.get !ready in
  let per_chunk = if ctx.smoke then 2 else 8 in
  let prefix = 2 in
  let t = tally () and s = sample () and pr = probe () in
  let chunks = ref [] in
  let shards_retired () =
    List.fold_left ( + ) 0
      (List.init (Cluster.nodes cluster) (fun i -> Node.retired_instructions (Cluster.shard cluster i)))
  in
  loop ctx ~min_chunks:prefix (fun k ->
      let requests =
        Span.with_span ctx.trace "bench.inputs" (fun () ->
            Batch.random_requests c.program ~batch:per_chunk ~seed:(sub_seed ctx (3000 + k)))
      in
      with_chunk ctx k (fun spans ->
          let served =
            List.map
              (fun (r : Batch.request) ->
                let before = counts_of_cluster cluster and c0 = Cluster.cycles cluster in
                let w0 = Cluster.offchip_words cluster and i0 = shards_retired () in
                let out, dt =
                  timed (fun () ->
                      try
                        Ok
                          (Span.with_span spans ~req:((k * per_chunk) + r.index) "sim.run" (fun () ->
                               Cluster.run cluster ~inputs:r.inputs))
                      with Node.Deadlock msg | Failure msg -> Error msg)
                in
                let after = counts_of_cluster cluster in
                if Span.enabled spans then begin
                  pr.run_s <- dt :: pr.run_s;
                  pr.instrs <- pr.instrs + shards_retired () - i0;
                  pr.link_words <- pr.link_words + Cluster.offchip_words cluster - w0;
                  add_counts pr ~before ~after
                end;
                (r, out, dt, Cluster.cycles cluster - c0, dynamic_pj config ~before ~after))
              requests
          in
          let dt = List.fold_left (fun acc (_, _, d, _, _) -> acc +. d) 0.0 served in
          chunks := { traced = traced ctx k; ops = per_chunk; secs = dt } :: !chunks;
          Span.with_span spans "bench.check" (fun () ->
              List.iter
                (fun ((r : Batch.request), out, _, cycles, energy_pj) ->
                  let verdict =
                    Result.bind out (fun got -> check_outputs ~argmax:true ~want:(Puma.reference g r.inputs) ~got ())
                    |> Result.map_error (Printf.sprintf "mlpl4 request %d.%d: %s" k r.index)
                  in
                  (match verdict with
                  | Ok err when k < prefix -> add_sample s ~prog:0 ~cycles ~energy_pj ~latency:cycles ~err
                  | _ -> ());
                  record t (Result.map ignore verdict))
                served)));
  let program_of _ = c.program in
  {
    tally = t;
    samples = List.length s.infs;
    e2e = end_to_end ctx ~setup:!times ~chunks:!chunks ~s ~limit_us:1000.0 ~program_of;
    layers =
      {
        compiled = [ c ];
        lb = lower_bounds ctx s ~program_of;
        probe = pr;
        kernel_ns = kernel_ns ctx config.mvmu_dim;
        serve = None;
        batch_s = 0.0;
        overhead = overhead !chunks;
      };
  }

let all = [ ("zoo-compile", zoo_compile); ("zoo-serve", zoo_serve); ("zoo-observed", zoo_observed); ("mlpl4-x2", mlpl4_x2) ]
