(** ASCII table rendering for the benchmark harness.

    Every reproduced paper table/figure is printed as an aligned text table
    so that `dune exec bench/main.exe` output can be compared directly with
    the paper's rows. *)

type align = Left | Right

type t

val create : title:string -> headers:string list -> t
(** A table with a title line and one header row. Column alignment defaults
    to [Right] for all but the first column. *)

val set_aligns : t -> align list -> unit

val set_host_columns : t -> string list -> unit
(** Mark the named columns as host-clock measurements (wall time, or a
    rate derived from it). They are printed but left out of {!to_json},
    since they differ from run to run. Raises [Invalid_argument] for a
    name that is not a header. *)

val add_row : t -> string list -> unit
(** Rows shorter than the header are padded with empty cells. *)

val add_sep : t -> unit
(** Insert a horizontal separator between row groups. *)

val render : t -> string

val print : t -> unit
(** Render to stdout followed by a blank line. *)

val to_json : t -> Json.t
(** [{"title", "headers", "rows"}] without the host-clock columns: one
    list of cells per row, in order, as {!render} prints them before
    padding. Separators are dropped. *)

(** {1 Cell formatting helpers} *)

val fmt_float : float -> string
(** Fixed 3-decimal formatting. *)

val fmt_sci : float -> string
(** Scientific formatting with 3 significant digits. *)

val fmt_ratio : float -> string
(** Formats a speedup/savings factor like "123.4x". *)

val fmt_pct : float -> string
(** Formats a fraction as a percentage like "12.3%". *)
