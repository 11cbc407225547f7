(** Serving-run record / replay.

    A trace file is one JSON document capturing everything a serving run
    decided: the fleet shape (with each machine's chip count, partitioning
    scheme and fabric topology), the resident models (by name, with their
    scheduling parameters and the crossbar dimension they were compiled
    at), and one record per arrival — its model, arrival cycle, and
    admission fate (with start/finish/node/cycles/energy for admitted
    requests). Because the engine is deterministic, replaying the
    recorded workload through a freshly compiled fleet must reproduce
    every decision bit for bit; {!check} verifies that and names the
    first divergence.

    Format (version 2):
    {v
    { "version": 2, "mvmu_dim": 128, "nodes": 4, "chips": 1,
      "scheme": "pipelined", "topology": "mesh", "max_batch": 4,
      "input_seed": 7, "frequency_ghz": 1.0, "arrival_spec": "poisson:2000",
      "models": [ {"name": "mlp", "priority": 0, "queue_limit": 0,
                   "slo_ms": null}, ... ],
      "requests": [ {"arrival": 0, "model": 0, "model_request": 0,
                     "arrival_cycle": 312, "admitted": true,
                     "start_cycle": 312, "finish_cycle": 730, "node": 0,
                     "cycles": 418, "energy_pj": 6190.5}, ... ] }
    v}
    Request inputs are not stored: they regenerate from [input_seed] and
    the per-model request index ({!Engine.model_input_seed}). The machine
    keys ([chips], [scheme], [topology]) are required: version 1 had no
    way to tell a multi-chip fleet from a single-chip one, so a version-1
    trace is refused. *)

type model_spec = {
  name : string;
  priority : int;
  queue_limit : int;
  slo_ms : float option;
}

type outcome =
  | Admitted of {
      start_cycle : int;
      finish_cycle : int;
      node : int;
      cycles : int;
      energy_pj : float;
    }
  | Rejected of { queue_depth : int }

type recorded = { model : int; arrival_cycle : int; outcome : outcome }

type t = {
  mvmu_dim : int;
  nodes : int;  (** Fleet size. *)
  chips : int;  (** Chips per fleet machine. *)
  scheme : Puma_compiler.Partition.scheme;
  topology : Puma_noc.Fabric.topology;
  max_batch : int;
  input_seed : int;
  frequency_ghz : float;
  arrival_spec : string;  (** {!Arrival.to_spec} of the generating process
                              ([""] for a hand-built workload). *)
  models : model_spec array;
  requests : recorded array;  (** In arrival order. *)
}

val of_report :
  ?arrival_spec:string ->
  ?chips:int ->
  ?scheme:Puma_compiler.Partition.scheme ->
  ?topology:Puma_noc.Fabric.topology ->
  Engine.model array ->
  Engine.report ->
  t
(** The machine defaults to one chip ([Pipelined], [Mesh2d]): pass the
    machine the fleet's programs were compiled and run for. *)

val to_json : t -> Puma_util.Json.t

val save : string -> t -> unit
(** Write the JSON document (with a trailing newline) to a file. *)

val load : string -> (t, string) result
(** Read a trace back. Errors are prefixed with the file path; JSON
    syntax errors name the 1-based line of the failure
    (["trace.json: line 3: ..."]), structural errors name the missing or
    ill-typed field. *)

val workload_of : t -> Engine.workload
(** The recorded arrival sequence, ready to re-{!Engine.run}. *)

val config_of : t -> Engine.config

val check : t -> Engine.report -> (unit, string) result
(** Compare a replayed report against the recorded decisions: admission
    fate, start/finish/node, cycles and energy must all match on every
    arrival. The error names the first mismatching arrival and field. *)
