(** LRU block cache bookkeeping.

    Tracks which block numbers are resident and which are dirty; the
    DISCPROCESS consults it to decide whether a logical access costs a
    physical one, and learns which dirty block a capacity eviction pushes
    out. The cached contents themselves live in the store above — this
    module is pure replacement policy and accounting, which is all the
    experiments need ("a cache buffering scheme designed to keep the most
    recently referenced blocks of data in main memory").

    Block numbers are dense and non-negative: a store hands them out from
    zero. A lookup is one load from a slot array indexed by block number
    (it grows to the largest block touched), and the LRU order is an
    intrusive list, so a hit allocates nothing. *)

type t

type block = int

val create : capacity:int -> t

val resident : t -> int
(** Test hook: blocks held now. *)

type eviction = { block : block; dirty : bool }

val touch : t -> block -> [ `Hit | `Miss of eviction option ]
(** Reference a block: on a hit it becomes most-recently-used; on a miss it
    is brought in, possibly evicting the least-recently-used block (returned
    so the caller can write it back if dirty). O(1); a hit allocates nothing.
    Raises [Invalid_argument] for a negative block. *)

val mark_dirty : t -> block -> unit
(** Requires the block to be resident ([Invalid_argument] otherwise). *)

val clean : t -> block -> unit
(** A block that is not resident, negative ones included, is left alone;
    likewise for {!is_dirty} (false) and {!drop}. *)

val is_dirty : t -> block -> bool
(** Test hook: whether a resident block was written since it was last
    cleaned. *)

val dirty_blocks : t -> block list
(** Ascending. Walks the resident blocks only: O(capacity log capacity). *)

val drop : t -> block -> unit
(** Remove a block without write-back (file deletion). *)

val clear : t -> unit
(** Lose everything (processor pair double failure). *)

val hits : t -> int

val misses : t -> int
