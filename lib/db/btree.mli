(** Key-sequenced files: a B+-tree over the block store.

    Records live in leaf blocks chained by sibling links (for sequential and
    range access); internal blocks hold separator keys only. Inserts split
    full blocks; deletes are relaxed (blocks may become under-full or empty
    but stay structurally valid), which matches common practice and keeps
    the structure verifiable by {!check_invariants}.

    Every access is charged through the store: index descent costs cache
    touches and misses cost physical reads, so multi-key and range-access
    experiments measure realistic I/O. *)

type t

val create : Store.t -> name:string -> degree:int -> t
(** [degree] is the minimum degree [d >= 2]: every block holds at most
    [2d - 1] keys. Small degrees make deep trees for cheap (they exercise
    splits quickly in tests); realistic blocks are [d = 32] or more. *)

val count : t -> int
(** Number of records. *)

val height : t -> int
(** Test hook: levels from root to leaf (1 = root is a leaf). *)

val insert : t -> Key.t -> string -> (unit, [ `Duplicate ]) result

val bulk_load : t -> ((Key.t -> string -> unit) -> unit) -> unit
(** [bulk_load t feed] appends every record [feed] passes to its argument,
    in order. The tree ends exactly as {!insert} of the same records would
    leave it — the same splits, the same {!Store.alloc} calls in the same
    order, the same block contents, root and count — but the rightmost
    root-to-leaf path lives in buffers: it is read once, each block is
    written once when it leaves the path, and the path itself is written
    when [feed] returns. O(records + blocks).

    Each key must exceed every key already in the tree and the key before
    it; otherwise raises [Invalid_argument] naming the tree, and the
    records before it stay loaded. *)

val find : t -> Key.t -> string option

val update : t -> Key.t -> string -> (string, [ `Not_found ]) result
(** Returns the previous payload (the before-image). *)

val delete : t -> Key.t -> (string, [ `Not_found ]) result
(** Returns the deleted payload (the before-image). *)

val next_after : t -> Key.t -> (Key.t * string) option
(** Smallest record strictly greater than the key (sequential access). *)

val range : t -> lo:Key.t -> hi:Key.t -> (Key.t * string) list
(** All records with [lo <= key <= hi], ascending. *)

val iter : t -> (Key.t -> string -> unit) -> unit
(** Ascending full scan. *)

val to_alist : t -> (Key.t * string) list

val check_invariants : t -> (unit, string) result
(** Structural audit: uniform depth, ordered and bounded keys everywhere,
    consistent sibling chain, record count. *)

val leaf_blocks : t -> int
(** Number of leaf blocks (compression statistics). *)

val snapshot : t -> unit -> unit
(** Capture the tree's own metadata (root block, record count); applying the
    returned thunk restores it. Block contents are snapshot separately by
    the store — together they form a ROLLFORWARD archive. *)
