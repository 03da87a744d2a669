(** Record payloads and a small field codec.

    The data-base layer stores opaque payload strings; applications that want
    named fields (the manufacturing data base, the banking workload) encode
    them with this codec. The encoding is length-prefixed, so field names and
    values may contain any byte — in particular, a whole encoded record can
    ride inside a field of another (the suspense file relies on this). *)

type fields = (string * string) list

val encode : fields -> string

val decode : string -> fields
(** Inverse of {!encode}; raises [Invalid_argument] on malformed input. *)

val field : string -> string -> string option
(** [field payload name] decodes and extracts one field. *)

val set_field : string -> string -> string -> string
(** [set_field payload name value] re-encodes with [name] set to [value]
    (added if absent). *)

val int_field : string -> string -> int option
