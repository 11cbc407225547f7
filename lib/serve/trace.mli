(** Serving-run record / replay.

    A trace is the run's report ({!Engine.to_json}) plus the keys of the
    machine it ran on: the crossbar dimension, each fleet machine's chip
    count, partitioning scheme and fabric topology, and the arrival
    process. The report already names the fleet, the resident models
    with their scheduling parameters, and every arrival's model, cycle
    and fate, so the workload and the fleet are read back out of it.
    The engine is deterministic, so replaying the recorded workload on a
    freshly compiled fleet must reproduce the whole report bit for bit;
    {!check} verifies that and names the first path that differs.

    Format (version 3):
    {v
    { "version": 3, "mvmu_dim": 128, "chips": 1, "scheme": "pipelined",
      "topology": "mesh", "arrival_spec": "poisson:2000",
      "report": { "nodes": 4, "max_batch": 4, "input_seed": 7, ...,
                  "models": [ {"name": "mlp", "priority": 0, ...} ],
                  "requests": [ {"arrival": 0, "model": 0, ...} ] } }
    v}
    Request inputs are not stored: they regenerate from the report's
    [input_seed] ({!Engine.model_input_seed}). Versions 1 and 2 are
    refused: version 1 could not tell a multi-chip fleet from a
    single-chip one, and version 2 kept its own copy of the records. *)

type t = {
  mvmu_dim : int;
  chips : int;  (** Chips per fleet machine. *)
  scheme : Puma_compiler.Partition.scheme;
  topology : Puma_noc.Fabric.topology;
  arrival_spec : string;  (** {!Arrival.to_spec} of the generating process
                              ([""] for a hand-built workload). *)
  report : Puma_util.Json.t;  (** {!Engine.to_json} of the run. *)
}

val of_report :
  ?arrival_spec:string ->
  ?chips:int ->
  ?scheme:Puma_compiler.Partition.scheme ->
  ?topology:Puma_noc.Fabric.topology ->
  Engine.model array ->
  Engine.report ->
  t
(** The models give the crossbar dimension. The machine defaults to one
    chip ([Pipelined], [Mesh2d]): pass the machine the fleet's programs
    were compiled and run for. *)

val to_json : t -> Puma_util.Json.t

val save : string -> t -> unit
(** Write the JSON document (with a trailing newline) to a file. *)

val load : string -> (t, string) result
(** Read a trace back. Errors are prefixed with the file path; JSON
    syntax errors name the line ({!Puma_util.Json.parse}), structural
    errors name the missing or ill-typed field. *)

val workload_of : t -> Engine.workload
(** The recorded arrival sequence, ready to re-{!Engine.run}. *)

val config_of : t -> Engine.config

val models_of : t -> compile:(string -> Puma_isa.Program.t) -> Engine.model array
(** The recorded models with their scheduling parameters, each program
    built by [compile name]. *)

val check : t -> Engine.report -> (unit, string) result
(** Compare a replayed report's {!Engine.to_json} against the recorded
    one, every number included. The error names the first path that
    differs (["report.requests[1].finish_cycle: 1883543, trace recorded
    1883544"]). *)
