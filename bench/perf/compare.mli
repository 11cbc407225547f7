(** Comparing two sets of benchmark runs (choosing-metrics §5–§8).

    Each side is a set of run documents of one commit. For every
    (workload, metric) present on both sides, {!compare} reports each
    side's quartiles and the relative change of the medians, and judges it
    against the metric's bound from [BENCHMARK.json]: a change is
    unresolved when either side's run-to-run spread exceeds the bound,
    unless every new run reads better than every base run. {!claim} is the
    paired test for one named gain. *)

type better = Lower | Higher

type metric_def = {
  name : string;
  unit_ : string;
  better : better;
  bound : float option;  (** [None] for per-layer metrics (no bound). *)
}

type run = {
  workload : string;
  seed : int;
  attempted : int;
  failed : int;
  values : (string * float) list;
}

val runs_of_json : Puma_util.Json.t -> (run list, string) result
(** One run document ([{"workload": ..., "metrics": {...}, ...}], as
    [perf.exe --json] writes it) or a list of them. *)

val run_to_json :
  workload:string ->
  seed:int ->
  seconds:int ->
  trace:bool ->
  correct:bool ->
  attempted:int ->
  failed:int ->
  (string * float * string) list ->
  Puma_util.Json.t
(** The run document for metrics given as [(name, value, unit)]. *)

val defs_of_benchmark : Puma_util.Json.t -> (metric_def list, string) result
(** The [end_to_end] and [per_layer] entries of a [BENCHMARK.json]. *)

type verdict =
  | Identical  (** Every run on both sides reads the same value. *)
  | Within  (** Worse by at most the bound, or better. *)
  | Better  (** Every new run beats every base run. *)
  | Regressed  (** Median worse by more than the bound. *)
  | Unresolved  (** Spread wider than the bound; no clean separation. *)
  | Info  (** No bound (per-layer metric). *)

val verdict_name : verdict -> string

type row = {
  workload : string;
  metric : string;
  unit_ : string;
  base : float * float * float;  (** q1, median, q3. *)
  fresh : float * float * float;
  n_base : int;
  n_fresh : int;
  change : float;
      (** Relative change of the medians, positive when the new side is
          worse. *)
  spread : float;  (** Wider of the two sides' interquartile shares. *)
  bound : float option;
  verdict : verdict;
}

val compare : metric_def list -> base:run list -> fresh:run list -> row list
(** Rows in workload order, then definition order. [ops_failed_frac]
    (failed ÷ attempted over all runs of a side) is always compared, with
    a zero bound: more failures is a regression. *)

val render : row list -> string

type claim = {
  pairs : int;
  wins : int;  (** Pairs the new run reads better; ties count for neither. *)
  win_frac : float;  (** [wins / pairs]. *)
  gain : float;  (** Median improvement, in the metric's unit. *)
  base_iqr : float;  (** Distance between the base runs' quartiles. *)
  met : bool;  (** [win_frac >= 0.9] and [gain > base_iqr]. *)
}

val claim : better -> base:float list -> fresh:float list -> claim
(** Runs are paired in order (run [i] of each side). *)
