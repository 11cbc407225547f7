(** Multi-tenant serving runtime: a warmed node fleet under a
    deterministic virtual-clock event loop.

    The paper's deployment scenario: crossbars are weight-pinned, so many
    models co-reside on a node fleet at zero weight-movement cost, and an
    open stream of requests plays against them. This engine makes that
    scenario measurable — and exactly reproducible:

    - {b Virtual clock.} All scheduling runs in simulated cycles; nothing
      in the decision path reads a wall clock. The event loop's time is
      monotone (asserted, and exposed as [report.event_cycles] for the
      property tests).
    - {b Two phases.} A request's outputs, cycle cost and dynamic energy
      are functions of its model and inputs alone, so phase 1 simulates
      every arrival on per-worker warmed nodes (sharded over
      {!Puma_util.Pool}, exactly the {!Puma_runtime.Batch} computation —
      the differential tests pin bit-identity), and phase 2 ({!schedule})
      is a pure, single-threaded discrete-event loop over those costs.
      Reports are therefore independent of the host domain count.
    - {b Fleet semantics.} [nodes] simulated nodes each hold {e every}
      model resident (co-residency on disjoint tiles). A free node is
      dispatched the head of the highest-priority non-empty model queue
      (ties: earliest waiting head, then lowest model index) and serves up
      to [max_batch] requests of that model back to back: request [i] of
      the batch completes at [start + sum of the first i+1 costs], the
      node frees at the last completion (continuous batching: inputs
      stream through the pinned weights).
    - {b Admission.} A model whose waiting queue holds [queue_limit]
      requests rejects new arrivals (0 = unbounded). Every arrival is
      either served exactly once or rejected exactly once (the
      conservation property).

    Rejected arrivals are still simulated in phase 1 (their admission
    fate is unknown until the event loop runs); their outputs are
    discarded and only host time is spent. A run's record is its report,
    {!to_json}: a {!Trace} embeds it, and replay compares it whole. *)

type model = {
  name : string;
  program : Puma_isa.Program.t;
  priority : int;  (** Higher dispatches first; default 0. *)
  queue_limit : int;  (** Admission bound on waiting requests; 0 = none. *)
  slo_ms : float option;  (** Latency target, reporting only. *)
}

val model :
  ?priority:int ->
  ?queue_limit:int ->
  ?slo_ms:float ->
  name:string ->
  Puma_isa.Program.t ->
  model

type config = {
  nodes : int;  (** Simulated fleet size. *)
  max_batch : int;  (** Largest same-model dispatch. *)
  input_seed : int;  (** Root seed of every request's inputs. *)
}

type arrival = { cycle : int; model : int }

type workload = arrival array
(** Arrivals sorted by [cycle] (ties keep array order). *)

val synthesize :
  models:int ->
  Arrival.process ->
  seed:int ->
  duration_s:float ->
  frequency_ghz:float ->
  workload
(** Draw arrival times from the process ({!Arrival.times}) and assign
    arrival [k] a model uniformly from the indexed child stream
    [Rng.stream assign k] — both pure functions of [(seed, k)]. *)

val model_input_seed : input_seed:int -> model:int -> int
(** The {!Puma_runtime.Batch.random_requests} seed of one model's request
    stream: a {!Puma_runtime.Batch.request_seed} mix of [input_seed] and
    the model index, so co-resident models draw decorrelated inputs. *)

val requests_for :
  config -> model array -> workload -> int -> Puma_runtime.Batch.request list
(** [requests_for config models workload m]: the exact request list model
    [m] receives over the workload, in per-model arrival order — feed it
    to {!Puma_runtime.Batch.run} to reproduce the serve outputs
    bit-identically (the differential anchor). *)

type cost = {
  cycles : int;  (** Service time of the request, simulated cycles. *)
  energy_pj : float;  (** Its dynamic energy. *)
  outputs : (string * float array) list;
}

type served = {
  arrival : int;  (** Global arrival index. *)
  model : int;
  model_request : int;  (** Index into the model's request stream. *)
  arrival_cycle : int;
  start_cycle : int;  (** Dispatch cycle of its batch. *)
  finish_cycle : int;
  node : int;
  cycles : int;
  energy_pj : float;
  outputs : (string * float array) list;
}

type rejection = {
  arrival : int;
  model : int;
  model_request : int;
  arrival_cycle : int;
  queue_depth : int;  (** Waiting requests that caused the rejection. *)
}

type model_stats = {
  name : string;
  priority : int;
  queue_limit : int;  (** The model's scheduling parameters, as given. *)
  arrivals : int;
  served : int;
  rejected : int;
  rejection_rate : float;
  p50_ms : float;
  p99_ms : float;
  p999_ms : float;  (** Latency percentiles over served requests. *)
  mean_queue_depth : float;  (** Time-weighted over the makespan. *)
  max_queue_depth : int;
  slo_ms : float option;
  slo_attainment : float;  (** Served within SLO / served; 1.0 if no SLO. *)
  dynamic_energy_uj : float;
  throughput_rps : float;  (** Served over the makespan. *)
}

type report = {
  nodes : int;
  max_batch : int;
  input_seed : int;
  frequency_ghz : float;
  arrivals : int;
  served : served array;  (** In arrival order. *)
  rejections : rejection array;  (** In arrival order. *)
  makespan_cycles : int;
      (** Virtual time of the last processed event — the last completion,
          or a later rejected arrival (0 for an empty workload). *)
  utilization : float;  (** Busy node-cycles / (nodes * makespan). *)
  models : model_stats array;
  dynamic_energy_uj : float;
  static_energy_uj : float;
      (** Leakage/clock energy of every resident model's tiles on all
          [nodes] over the makespan — co-residency's standing cost. *)
  total_energy_uj : float;
  event_cycles : int array;
      (** Virtual time of every processed event, in processing order
          (nondecreasing — the clock-monotonicity witness). *)
}

val schedule : config -> model array -> workload -> cost array -> report
(** The pure phase-2 event loop: given every arrival's cost, play the
    workload through the fleet. Raises [Invalid_argument] on an empty
    model list, non-positive [nodes]/[max_batch], unsorted workload,
    out-of-range model indices, a cost array of the wrong length, or
    non-positive cycle costs. Deterministic: equal inputs give equal
    reports, bit for bit. *)

val run :
  ?domains:int ->
  ?cluster_nodes:int ->
  ?topology:Puma_noc.Fabric.topology ->
  config ->
  model array ->
  workload ->
  report
(** Phase 1 + phase 2: simulate every arrival's request on per-worker
    warmed nodes ([domains] shards the host work, default
    {!Puma_util.Pool.default_domains}; the report is bit-identical for
    any value), then {!schedule}.

    [cluster_nodes > 1] makes every fleet slot a cluster of that many
    chips (fabric [topology], default mesh; see
    {!Puma_runtime.Batch.warmed_node}): [config.nodes] remains the
    {e fleet} size the dispatcher schedules over, while [cluster_nodes]
    is the size of each machine in that fleet. Each arrival is served by
    {!Puma_runtime.Batch.serve}, on one chip or a cluster alike. *)

val burst : nodes:int -> model -> Puma_runtime.Batch.response array -> report
(** A closed batch as a serve workload: response [i] of one model's
    {!Puma_runtime.Batch.run} is arrival [i], every arrival lands at
    cycle 0, and [nodes] machines serve one request per dispatch
    ([max_batch = 1]). The report's makespan, throughput and energy are
    the batch's on that fleet; its [input_seed] is 0, since the
    responses carry their own inputs. *)

val latency_ms : report -> served -> float
(** Queue wait + service, virtual milliseconds. *)

val pp_report : Format.formatter -> report -> unit

val report_table : report -> Puma_util.Table.t
(** Per-model rows (latency percentiles, rejection rate, queue depths,
    SLO attainment, energy, throughput). *)

val to_json : report -> Puma_util.Json.t
(** The report as JSON: the summary, each model in full (name,
    scheduling parameters, statistics) and one record per arrival, in
    arrival order — the payload a {!Trace} embeds. *)
