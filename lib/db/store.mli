(** The block store: logical block contents over a mirrored volume, through
    an LRU cache.

    The store keeps two images of every block: the *current* image (what the
    DISCPROCESS pair holds across its memory and disc) and the *flushed*
    image (what is actually on oxide). A single-module failure never touches
    either — the process-pair survives it. A double failure ([crash]) throws
    the current image away and leaves only the flushed one, which is exactly
    the torn state ROLLFORWARD exists to repair: flushed blocks may contain
    uncommitted updates and lack committed ones, because TMF deliberately
    does not force data blocks at commit.

    I/O charging: a read misses the cache into a physical read; a write
    dirties the cache; dirty evictions and explicit flushes write physically.
    [set_charging false] suspends all physical I/O and cache traffic for
    data-base loading in experiment setup.

    Block numbers are dense and non-negative: {!alloc} hands them out from
    zero. Both images are arrays indexed by block number, so {!read},
    {!write}, {!alloc} and {!free} are O(1) with no hashing, and {!crash}
    and {!overwrite_disk_image} are one array copy each. *)

type t

val create :
  Tandem_disk.Volume.t -> cache_capacity:int -> t

val set_charging : t -> bool -> unit

val alloc : t -> Block_content.t -> int
(** Allocate a fresh block number holding the given content (dirty in
    cache). *)

val read : t -> int -> Block_content.t
(** Raises [Not_found] for a never-allocated or freed block. *)

val write : t -> int -> Block_content.t -> unit

val free : t -> int -> unit
(** Test hook: release a block from the current and flushed images and the
    cache. *)

val flush_all : t -> unit
(** Test hook: write back every dirty block. *)

val crash : t -> unit
(** Lose the current image: revert to flushed blocks, empty the cache. *)

val overwrite_disk_image : t -> unit
(** Make the flushed image equal to the current image without charging I/O —
    used when restoring an archived copy in ROLLFORWARD experiments. *)

val block_count : t -> int
(** Allocated blocks in the current image; O(1). *)

val dirty_count : t -> int
(** Test hook: blocks written since they were last flushed. *)

val cache_hits : t -> int

val cache_misses : t -> int

val snapshot : t -> (int * Block_content.t) list
(** Current image, sorted by block number (archive creation; tests). *)

val restore : t -> (int * Block_content.t) list -> unit
(** Replace the current image wholesale (archive restoration). Raises
    [Invalid_argument] for a negative block number. *)
