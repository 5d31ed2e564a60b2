(** Minimal JSON parsing for reading back CI artifacts the repo wrote
    itself with {!Json_out} (committed analyzer baselines).  Strict:
    no comments, no trailing commas. *)

val of_file : string -> (Json_out.t, string) result

val member : string -> Json_out.t -> Json_out.t option
(** Field lookup; [None] on non-objects and missing keys. *)

val to_list : Json_out.t -> Json_out.t list option
val to_string_opt : Json_out.t -> string option
