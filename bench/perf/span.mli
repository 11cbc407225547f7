(** Host spans recorded by the benchmark around calls into each layer.

    A span is one timed call: a name ([layer.call]), a start and an end on
    the monotonic clock, the span that was open when it started (its
    parent) and a request id. Spans are kept in memory and exported as
    Chrome trace-event JSON when the run ends. A disabled recorder runs the
    wrapped function and records nothing. *)

type span = {
  id : int;
  name : string;
  parent : int;  (** [-1] for a root span. *)
  req : int;  (** Request id; [-1] when the span serves no single request. *)
  start_ns : int64;
  stop_ns : int64;
}

type t

val create : ?clock:(unit -> int64) -> enabled:bool -> unit -> t
(** [clock] (default the monotonic clock, in nanoseconds) is replaceable
    so tests can drive the recorder with hand-made timestamps. *)

val disabled : t
(** A recorder that never records. *)

val enabled : t -> bool

val with_span : t -> ?req:int -> string -> (unit -> 'a) -> 'a
(** Time [f] as a span nested in the innermost open span. The span is
    closed even when [f] raises. *)

val spans : t -> span list
(** Closed spans in start order. *)

val now_s : unit -> float
(** Monotonic clock reading in seconds. *)

type self = { calls : int; self_s : float; total_s : float }

val self_times : span list -> (string * self) list
(** Per span name: calls, summed self time (duration minus the part of
    that interval the span's direct children cover) and summed duration.
    Sorted by decreasing self time. *)

val to_chrome : span list -> Puma_util.Json.t
(** Chrome trace-event document ([traceEvents] of complete ["X"] events,
    microsecond timestamps relative to the earliest span). *)
