(** Parallel batched-inference runtime.

    Shards a batch of independent inference requests across per-domain
    {!Puma_sim.Node} instances (the PUMA paper's throughput scenario,
    Section 7.3: weights stay on the crossbars, only inputs move). The
    host-side simulation parallelism comes from {!Puma_util.Pool}. The
    batch's simulated makespan, throughput and energy on a fleet of
    machines are the serving engine's: [Puma_serve.Engine.burst]
    schedules the responses as a workload whose arrivals all land at
    cycle 0.

    {b Determinism guarantee.} Serial and parallel runs are bit-identical
    regardless of worker count:
    - every worker's node is built from the same program with the same
      [noise_seed], so all crossbar images match;
    - each node performs one warm-up inference on all-zero inputs before
      serving requests (a node's first run costs a few cold-start cycles
      less; warming makes every request see identical steady state), and
      the warm-up is excluded from all metrics;
    - a request's outputs, cycle count and dynamic energy are functions of
      the program and its own inputs only, never of which worker ran it or
      in which order, so a schedule of the responses (the serving
      engine's) never sees the host's work-stealing assignment. *)

type request = {
  index : int;  (** Position in the batch; responses are indexed by it. *)
  inputs : (string * float array) list;
}

type stall_split = (Puma_arch.Core.stall * int) list
(** Core-cycles lost per stall reason (nonzero entries only). *)

type response = {
  index : int;
  outputs : (string * float array) list;
  cycles : int;  (** Simulated cycles of this inference alone. *)
  dynamic_energy_pj : float;
  stalls : stall_split;
      (** This request's stall decomposition when {!run} was given
          [~profile:true]; [[]] otherwise. *)
}

type occupancy = {
  busy_cycles : int;
      (** Core/TCU cycles spent executing instructions across the batch. *)
  stall_cycles : stall_split;  (** Batch-wide stall decomposition. *)
}
(** What the profiler observes of a whole batch: [0] and [[]] unless
    {!run} was given [~profile:true]. *)

val input_lengths : Puma_isa.Program.t -> (string * int) list
(** Logical input vectors of a program with their total lengths (from the
    program's I/O bindings). *)

val request_seed : seed:int -> index:int -> int
(** Per-request RNG seed: a splitmix64-style mix of the batch seed and the
    request index, so request [i]'s inputs are the same in any batch with
    the same seed. *)

val random_requests :
  Puma_isa.Program.t -> batch:int -> seed:int -> request list
(** [batch] requests with uniform random inputs in [-0.8, 0.8] drawn from
    {!request_seed}-derived generators (the CLI / bench workload). *)

val warmed_node :
  ?noise_seed:int ->
  ?faults:Puma_xbar.Fault.plan option array ->
  ?nodes:int ->
  ?topology:Puma_noc.Fabric.topology ->
  Puma_isa.Program.t ->
  Puma_sim.Node.t
(** A fresh machine that has already served one throwaway all-zero
    inference, so every subsequent request sees identical steady state
    (the warmed-node pattern behind the determinism guarantee; also the
    serving runtime's fleet slot and the fault campaigns' machine). The
    warm-up's cycles and energy stay on the node's counters — callers
    measure per-request deltas ({!serve}).

    With [nodes = 1] (the default) it is one {!Puma_sim.Node}; otherwise
    it is the {!Puma_cluster.Cluster.node} of a cluster of [nodes] chips
    on fabric [topology] (default mesh). [faults] holds one fault plan
    slot per chip ([None] leaves that chip fault-free); an array of any
    other length raises [Invalid_argument]. The remaining arguments are
    {!Puma_sim.Node.create}'s and {!Puma_cluster.Cluster.create}'s. *)

val serve : Puma_sim.Node.t -> request -> response
(** Serve one request on a (warmed) machine: its outputs, and its cycles
    and dynamic energy as deltas of the node's clock and ledger ([stalls]
    is [[]]). Dynamic energy is integer event-count deltas times
    per-event energies, so it does not depend on what the node served
    before. The one request path of {!run}, the serving runtime and the
    fault campaigns, for single chips and clusters alike. *)

val run :
  ?domains:int ->
  ?cluster_nodes:int ->
  ?topology:Puma_noc.Fabric.topology ->
  ?noise_seed:int ->
  ?faults:Puma_xbar.Fault.plan option array ->
  ?profile:bool ->
  Puma_isa.Program.t ->
  request list ->
  response array * occupancy
(** Execute the batch: every worker serves its requests on one
    {!warmed_node} through {!serve}. [domains] is host parallelism only:
    the responses are the same for any value.

    [cluster_nodes > 1] makes each worker's machine a cluster of that
    many chips (fabric [topology], default mesh) — [domains] then
    replicates whole clusters, so the two axes compose: host-parallel
    workers, each simulating one multi-chip machine.

    [domains] defaults to
    {!Puma_util.Pool.default_domains}; [noise_seed] and [faults] (one
    slot per chip, as in {!warmed_node}) are passed to every worker's
    machine — with [faults], every worker machine carries the same
    deterministically realized fault set, so responses stay independent
    of the domain count. The response array is in
    request-index order. Raises like {!Puma_sim.Node.run} on bad programs
    or missing inputs.

    [profile] (default [false]) attaches a {!Puma_profile.Profile} to each
    worker's machine after its warm-up run — on a cluster it observes
    every chip — filling [response.stalls] and the {!occupancy} so a
    request's cycles decompose into stall classes. Profiling never
    changes outputs, cycle counts or energy totals (pinned by the
    differential tests). *)
