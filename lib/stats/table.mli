(** Aligned text tables for experiment reports.

    [clove-sim exp] prints each reproduced figure as a table with one row
    per x-value (load, fan-in, ...) and one column per scheme, mirroring
    the series in the paper's plots, and writes its {!csv} to
    [results/<id>.csv]. *)

type t

val create : header:string list -> t
(** Column headers; the first column is the row label. *)

val add_row : t -> string list -> unit
(** Raises [Invalid_argument] if the row width differs from the header. *)

val add_float_row : t -> label:string -> float list -> unit
(** Formats floats with 4 significant digits; NaN prints as "-". *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string

val csv : t -> string
(** Comma-separated rendering, for piping to plotting tools. *)
