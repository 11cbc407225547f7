(** Minimal JSON tree, printer and parser.

    Enough of RFC 8259 for the toolchain's machine-readable outputs
    (profiles, Chrome trace events, analyzer reports) and for tests to
    parse them back and validate structure — without an external
    dependency. Integers are kept distinct from floats on printing
    ([Int 3] prints as [3], [Float 3.] as [3.0]); the parser returns
    [Int] for number tokens without fraction/exponent that fit in an
    OCaml [int], [Float] otherwise. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact (single-line) rendering. Strings are escaped per RFC 8259;
    non-finite floats are rendered as [null] (JSON has no NaN/inf). *)

val to_buffer : Buffer.t -> t -> unit
(** Append the compact rendering (what {!to_string} uses; lets large
    documents stream into one buffer). *)

val to_string_lines : t -> string
(** {!to_string}, except that each element of a list holding lists or
    objects starts a new line, and a newline ends the document. A
    table's rows then come one per line, so a line diff of two
    documents names the rows that differ. *)

val parse : string -> (t, string) result
(** Parse one JSON document (surrounding whitespace allowed; trailing
    garbage is an error). Errors carry a character offset. *)

(** {1 Accessors} *)

val member : string -> t -> t option
(** Field of an [Obj] ([None] for absent fields or non-objects). *)

val to_int : t -> int option
(** [Int n] (and integral [Float]) as [n]. *)

val to_float : t -> float option
(** [Int] or [Float] as float. *)

val to_list : t -> t list option
val to_str : t -> string option
