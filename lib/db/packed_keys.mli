(** A B-tree block's keys, front-coded into one immutable string.

    ENCOMPASS front-compresses the keys inside each key-sequenced block: a
    key stores only the bytes that differ from its predecessor. Entry [i]
    is a varint [shared] (the bytes key [i] has in common with key [i - 1];
    0 for the first), a varint suffix length, then the suffix bytes. Every
    [shared] is the longest common prefix, so a key sequence has exactly
    one encoding and two blocks with equal keys hold equal strings.

    A block's keys are strictly ascending; {!search} relies on it. *)

type t = private string

val empty : t
(** No keys. *)

val of_array : Key.t array -> t

val of_shared : Key.t array -> int array -> int -> t
(** [of_shared keys shared n]: the first [n] keys, where [shared.(i)] is
    [Key.common_prefix_length keys.(i - 1) keys.(i)] for [i >= 1]
    ([shared.(0)] is not read), for a caller that already compared each
    key with the one before. Raises [Invalid_argument] when a [shared.(i)]
    is negative or longer than key [i]. *)

val to_array : t -> Key.t array

val search : t -> Key.t -> int
(** [search t key] is [i] when key [i] equals [key], and [-(i + 1)] when
    [key] is absent and [i] keys lie below it. One linear scan that
    compares in place and allocates nothing. *)

val get : t -> int -> Key.t
(** Key [i]; raises [Invalid_argument] when there is no such key. *)

val iteri : (int -> Key.t -> unit) -> t -> unit
(** Every key in order, each rebuilt once. *)

(** {2 Edits}

    Each copies the untouched entries byte for byte and re-encodes only
    the entries next to the edit. *)

val add : t -> Key.t -> (int * t, int) result
(** [add t key] is [Ok (i, t')] with [key] in order as key [i] of [t'], or
    [Error i] when key [i] already equals [key]. One scan, as {!search}. *)

val remove : t -> int -> t
(** Without key [i]; raises [Invalid_argument] when there is none. *)

val sub : t -> int -> int -> t
(** [sub t first length]: keys [first .. first + length - 1]. Raises
    [Invalid_argument] when they are not all in [t]. *)
