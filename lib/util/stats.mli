(** Small statistics helpers used by experiments and accuracy studies. *)

val mean : float array -> float
val variance : float array -> float
(** Population variance. *)

val stddev : float array -> float
val geomean : float array -> float
(** Geometric mean; all inputs must be positive. *)

val percentile : float array -> float -> float
(** [percentile xs p] with [p] in [0, 100], linear interpolation. *)

val sort_floats : float array -> unit
(** Sort in place, in [Float.compare] order (NaN first). Allocates
    nothing. *)

val percentile_sorted : float array -> float -> float
(** {!percentile} of an array already in {!sort_floats} order, for
    several percentiles of one sample at the cost of one sort. *)

val relative_error : reference:float -> measured:float -> float
(** [(measured - reference) / reference] magnitude; reference must be
    nonzero. *)

val rmse : float array -> float array -> float

val argmax : float array -> int
(** Index of the maximum element (first one on ties). *)
