(** A minimal JSON tree, printer and parser.

    The toolchain deliberately has no third-party JSON dependency; this
    module carries exactly what the observability layer needs: a value tree,
    a printer whose floats round-trip bit-exactly ([%.17g]), and a strict
    recursive-descent parser. Non-finite floats print as [null] (JSON has no
    spelling for them). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : ?pretty:bool -> t -> string
(** Compact by default; [~pretty:true] indents by two spaces. *)

val of_string : string -> (t, string) result
(** Strict parse of one JSON value (trailing garbage is an error). *)

(** {1 Accessors} — all return [None] on a shape mismatch. *)

val member : string -> t -> t option

val to_int : t -> int option

val to_float : t -> float option
(** Accepts [Int] too (JSON does not distinguish). *)

val to_list : t -> t list option

val to_string_value : t -> string option
