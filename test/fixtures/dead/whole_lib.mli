val only_included : int
(** used only through [include Whole_lib]: a whole-module use *)
