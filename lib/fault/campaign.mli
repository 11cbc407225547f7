(** Monte-Carlo fault-injection campaigns.

    A campaign sweeps a grid of fault rates x fault seeds over one
    compiled program on a machine of one or more chips: each grid point
    realizes one fault plan per chip (optionally with the {!Remap}
    healing pass), replays the same input batch through
    {!Puma_runtime.Batch.run}, and compares every response against a
    golden fault-free run of the identical batch on the same machine.
    Accuracy is reported in fixed-point ulps (Q3.12 raw-value distance)
    and as the argmax flip rate — the fraction of inferences whose
    predicted class changed. On several chips each point also measures
    every chip's blast radius: the flip rate with only that chip's
    faults live.

    Determinism: the golden run and every point use the same
    {!Puma_runtime.Batch.random_requests} batch (from [input_seed]) and
    run their machine simulations serially inside the point, while points
    are sharded across domains with {!Puma_util.Pool}. Every point is a
    function of [(program, nodes, topology, spec, rate, fault_seed)]
    only, so reports are bit-identical regardless of the domain count,
    and a single point can be re-realized in isolation from its
    coordinates. *)

(** Campaign specification. [base] supplies the fault-model shape —
    stuck-ON fraction, drift parameters, ADC offset sigma — while the
    swept [rates] override its Bernoulli rates via {!at_rate}. *)
type spec = {
  base : Puma_xbar.Fault.t;
  rates : float list;  (** Swept device/line fault rates. *)
  fault_seeds : int list;  (** Fault-realization seeds per rate. *)
  samples : int;  (** Inference requests per grid point. *)
  input_seed : int;  (** Batch seed for {!Puma_runtime.Batch.random_requests}. *)
  remap : bool;  (** Run the {!Remap} healing pass at each point. *)
}

val default_spec : spec
(** [base = ideal] (shape only: stuck-ON fraction 0.5, no drift/ADC),
    [rates = [1e-4; 1e-3; 1e-2]], [fault_seeds = [1; 2]], [samples = 8],
    [input_seed = 7], [remap = false]. *)

val at_rate : Puma_xbar.Fault.t -> float -> Puma_xbar.Fault.t
(** [at_rate base r] is [base] with [stuck_rate], [dead_in_rate] and
    [dead_out_rate] all set to [r] — the swept "fault rate" applies
    per-device for stuck cells and per-line for dead lines. *)

(** One evaluated grid point. Counts and diagnostics sum over every
    chip. *)
type point = {
  rate : float;
  fault_seed : int;
  total_faults : int;  (** Realized faulty elements across all MVMUs. *)
  node_faults : int array;  (** Realized faulty elements per chip. *)
  remapped_mvmus : int;  (** Stacks given non-identity permutations. *)
  fault_errors : int;  (** [E-FAULT] diagnostics from the remap pass. *)
  fault_warnings : int;  (** [W-FAULT] diagnostics from the remap pass. *)
  diags : Puma_analysis.Diag.t list;
      (** Chip by chip; locations name global tile indices. *)
  max_err_ulps : int;
      (** Max Q3.12 raw distance to the golden outputs over all samples
          and output elements. *)
  mean_err_ulps : float;  (** Mean over all output elements. *)
  flip_rate : float;
      (** Fraction of samples whose output argmax changed, with every
          chip faulted. *)
  node_flip_rates : float array;
      (** Flip rate with only chip [k]'s faults live; [[| flip_rate |]]
          on one chip. *)
  mean_cycles : float;  (** Mean per-request simulated cycles. *)
  responses : Puma_runtime.Batch.response array;
      (** Raw responses (request-index order) for differential tests. *)
}

type report = {
  key : string;  (** Model/program label for rendering. *)
  nodes : int;  (** Chips the program runs on. *)
  topology : Puma_noc.Fabric.topology;  (** Their chip-to-chip fabric. *)
  spec : spec;
  golden : Puma_runtime.Batch.response array;
  points : point array;  (** Rate-major, seed-minor grid order. *)
}

val run :
  ?domains:int ->
  ?nodes:int ->
  ?topology:Puma_noc.Fabric.topology ->
  key:string ->
  Puma_isa.Program.t ->
  spec ->
  report
(** Evaluate the full grid on a machine of [nodes] chips (default 1)
    linked by fabric [topology] (default mesh). Chip [k]'s plan is
    {!Remap.build} on its shard from {!Puma_cluster.Cluster.split_program}
    (on one chip, the whole program); chip 0 takes the point's
    [fault_seed], chip [k > 0] [Batch.request_seed ~seed:fault_seed
    ~index:k]. The per-chip blast-radius reruns happen only when
    [nodes > 1]. [domains] (default {!Puma_util.Pool.default_domains})
    shards grid points, not the per-point simulations; reports are
    bit-identical for any value. *)

val by_rate : report -> (float * point list) list
(** Points grouped by rate, in sweep order. *)

val to_json : report -> Puma_util.Json.t
(** Machine-readable report (schema in [docs/RELIABILITY.md]); omits the
    raw responses. *)

val table : report -> Puma_util.Table.t
(** One row per (rate, seed) point plus a mean row per rate; on several
    chips, one [n<k> flip] column per chip before the flip rate. *)

val pp : Format.formatter -> report -> unit
