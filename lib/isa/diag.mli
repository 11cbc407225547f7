(** Structured diagnostics shared by the structural checker ({!Check}) and
    the dataflow analyzer ([puma_analysis]).

    A diagnostic carries a stable machine-readable code (e.g. ["E-UBD"]),
    a severity, a structured location inside the compiled program and a
    human-readable message. Codes are documented in [docs/ANALYSIS.md];
    they are part of the tool's stable surface (tests and CI match on
    them), messages are not. *)

type severity = Error | Warning | Info

val severity_name : severity -> string
(** ["error"], ["warning"], ["info"]. *)

type loc = {
  tile : int option;
  core : int option;
      (** [Some c] names core stream [c]; [None] with [pc] set names the
          tile control unit stream. *)
  pc : int option;
}

type t = {
  code : string;  (** Stable code, e.g. "E-UBD", "W-DEADSTORE". *)
  severity : severity;
  loc : loc;
  message : string;
}

val error :
  code:string ->
  ?tile:int ->
  ?core:int ->
  ?pc:int ->
  ('a, unit, string, t) format4 ->
  'a

val warning :
  code:string ->
  ?tile:int ->
  ?core:int ->
  ?pc:int ->
  ('a, unit, string, t) format4 ->
  'a

val info :
  code:string ->
  ?tile:int ->
  ?core:int ->
  ?pc:int ->
  ('a, unit, string, t) format4 ->
  'a

val loc_to_string : loc -> string
(** E.g. "tile 2 core 1 pc 14", "tile 0 tcu pc 3", "tile 4", "program". *)

val compare : t -> t -> int
(** Orders by location (program-level first, then tile/core/pc), then by
    severity (errors first), then code and message; a total order, so
    sorting reports is deterministic. *)

val pp : Format.formatter -> t -> unit
(** One line: "error[E-UBD] tile 0 core 1 pc 14: ...". *)

val to_string : t -> string

val fail : code:string -> ?tile:int -> ('a, unit, string, 'b) format4 -> 'a
(** [fail ~code ?tile fmt ...] raises [Failure] carrying the rendered
    error diagnostic: how a compile pass reports a budget it cannot meet,
    so callers that catch [Failure] print it with its stable code. *)

val to_json : t -> Puma_util.Json.t
(** One JSON object: [{"code":...,"severity":...,"tile":...,"core":...,
    "pc":...,"message":...}]; absent location fields are [null]. *)
