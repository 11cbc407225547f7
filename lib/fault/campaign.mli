(** Monte-Carlo fault-injection campaigns.

    A campaign sweeps a grid of fault rates x fault seeds over one
    compiled program: each grid point realizes a fault plan (optionally
    with the {!Remap} healing pass), replays the same input batch through
    {!Puma_runtime.Batch.run}, and compares every response against a
    golden fault-free run of the identical batch. Accuracy is reported in
    fixed-point ulps (Q3.12 raw-value distance) and as the argmax flip
    rate — the fraction of inferences whose predicted class changed.

    Determinism: the golden run and every point use the same
    {!Puma_runtime.Batch.random_requests} batch (from [input_seed]) and
    run their node simulations serially inside the point, while points
    are sharded across domains with {!Puma_util.Pool}. Every point is a
    function of [(program, spec, rate, fault_seed)] only, so reports are
    bit-identical regardless of the domain count, and a single point can
    be re-realized in isolation from its coordinates. *)

(** Campaign specification. [base] supplies the fault-model shape —
    stuck-ON fraction, drift parameters, ADC offset sigma — while the
    swept [rates] override its Bernoulli rates via {!at_rate}. *)
type spec = {
  base : Fault_model.t;
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

val at_rate : Fault_model.t -> float -> Fault_model.t
(** [at_rate base r] is [base] with [stuck_rate], [dead_in_rate] and
    [dead_out_rate] all set to [r] — the swept "fault rate" applies
    per-device for stuck cells and per-line for dead lines. *)

(** One evaluated grid point. *)
type point = {
  rate : float;
  fault_seed : int;
  total_faults : int;  (** Realized faulty elements across all MVMUs. *)
  remapped_mvmus : int;  (** Stacks given non-identity permutations. *)
  fault_errors : int;  (** [E-FAULT] diagnostics from the remap pass. *)
  fault_warnings : int;  (** [W-FAULT] diagnostics from the remap pass. *)
  diags : Puma_analysis.Diag.t list;
  max_err_ulps : int;
      (** Max Q3.12 raw distance to the golden outputs over all samples
          and output elements. *)
  mean_err_ulps : float;  (** Mean over all output elements. *)
  flip_rate : float;
      (** Fraction of samples whose output argmax changed. *)
  mean_cycles : float;  (** Mean per-request simulated cycles. *)
  responses : Puma_runtime.Batch.response array;
      (** Raw responses (request-index order) for differential tests. *)
}

type report = {
  key : string;  (** Model/program label for rendering. *)
  spec : spec;
  golden : Puma_runtime.Batch.response array;
  points : point array;  (** Rate-major, seed-minor grid order. *)
}

val run :
  ?domains:int -> key:string -> Puma_isa.Program.t -> spec -> report
(** Evaluate the full grid. [domains] (default
    {!Puma_util.Pool.default_domains}) shards grid points, not the
    per-point simulations. *)

val by_rate : report -> (float * point list) list
(** Points grouped by rate, in sweep order. *)

val to_json : report -> Puma_util.Json.t
(** Machine-readable report (schema in [docs/RELIABILITY.md]); omits the
    raw responses. *)

val table : report -> Puma_util.Table.t
(** One row per (rate, seed) point plus a mean row per rate. *)

val pp : Format.formatter -> report -> unit

(** {2 Multi-node campaigns}

    The scale-out counterpart: the program is split across a
    {!Puma_cluster.Cluster} and every chip realizes its faults
    independently (its own shard program, its own derived seed) —
    modelling a multi-chip machine whose defect maps are uncorrelated.
    Each grid point measures the cluster-wide argmax flip rate with all
    chips faulted, plus one blast-radius rerun per chip with only that
    chip's plan live. *)

(** One evaluated multi-node grid point. *)
type cluster_point = {
  c_rate : float;
  c_fault_seed : int;
  node_faults : int array;  (** Realized faulty elements per node. *)
  c_total_faults : int;  (** Sum over all nodes. *)
  c_fault_errors : int;  (** [E-FAULT] diagnostics over all nodes. *)
  c_fault_warnings : int;  (** [W-FAULT] diagnostics over all nodes. *)
  node_flip_rates : float array;
      (** Flip rate with only node [k]'s faults live. *)
  c_flip_rate : float;  (** Flip rate with every node faulted. *)
  c_max_err_ulps : int;
  c_mean_err_ulps : float;
  c_mean_cycles : float;  (** Mean per-request cluster cycles (faulted). *)
}

type cluster_report = {
  c_key : string;
  c_nodes : int;
  c_topology : Puma_noc.Fabric.topology;
  c_spec : spec;
  c_golden : Puma_runtime.Batch.response array;
  c_points : cluster_point array;  (** Rate-major, seed-minor order. *)
}

val run_cluster :
  ?domains:int ->
  ?topology:Puma_noc.Fabric.topology ->
  nodes:int ->
  key:string ->
  Puma_isa.Program.t ->
  spec ->
  cluster_report
(** Evaluate the grid on an [nodes]-chip cluster (fabric [topology],
    default mesh). The golden batch is a fault-free cluster run of the
    same requests, so the comparison isolates fault effects from any
    (zero, by the bit-identity contract) partitioning effects. Node
    [k]'s fault plan is realized from its shard program with seed
    [Batch.request_seed ~seed:fault_seed ~index:k]. [domains] shards
    grid points; reports are bit-identical for any value. [fast] is
    forwarded to every cluster, as in {!run}. *)

val cluster_to_json : cluster_report -> Puma_util.Json.t
(** Machine-readable report (schema in [docs/SCALEOUT.md]). *)

val cluster_table : cluster_report -> Puma_util.Table.t
(** One row per (rate, seed) point: per-node flip rates, then the
    cluster flip rate. *)

val pp_cluster : Format.formatter -> cluster_report -> unit
