(** A logical disc volume: a mirrored pair of drives behind two dual-ported
    I/O controllers.

    Reads go to the less-busy up mirror; writes go to both mirrors in
    parallel. The volume stays available through the failure of either drive
    or either controller; it becomes unavailable only when both drives or
    both controllers are down — the multiple-module failure that leaves data
    unprotected without TMF. A failed drive is brought back by REVIVE, which
    copies the surviving mirror across while normal service continues. *)

type t

exception Unavailable of string
(** Raised by I/O against a volume with no usable path or no up mirror. *)

val create :
  ?cache_blocks:int ->
  Tandem_sim.Engine.t ->
  metrics:Tandem_sim.Metrics.t ->
  name:string ->
  access_time:Tandem_sim.Sim_time.span ->
  t
(** [cache_blocks] (default 0 = no cache) sizes the controller block cache
    behind {!read_block}/{!write_block}. *)

val engine : t -> Tandem_sim.Engine.t

val metrics : t -> Tandem_sim.Metrics.t

val name : t -> string

val available : t -> bool

val read_io : t -> unit
(** One physical read (fiber blocks for the access). *)

val force_io : t -> unit
(** A write that must reach oxide before returning: one physical write,
    applied to every up mirror in parallel (fiber blocks until the slower
    mirror finishes), counted separately because forced writes are what the
    WAL-vs-checkpoint experiment (E6) measures. Also flushes the controller
    cache's write-behind backlog: every dirty block is covered by this one
    physical write (counted under [disk.cache_write_behind]). *)

(** {1 Block-addressed I/O through the controller cache}

    With [cache_blocks = 0] these are exactly {!read_io} and one physical
    write, timed as in {!force_io} but not forced. With a cache, a read hit
    costs no disc access, a write is absorbed (the block goes dirty and
    rides out with the next {!force_io}), and evicting a dirty block pays
    its deferred physical write on the spot. Hits, misses
    and eviction writes are exported as [disk.cache_hits],
    [disk.cache_misses] and [disk.cache_evict_writes]. *)

val read_block : t -> int -> unit

val write_block : t -> int -> unit

val fail_drive : t -> [ `M0 | `M1 ] -> unit

val revive_drive : t -> [ `M0 | `M1 ] -> blocks:int -> unit
(** Start revival of a failed drive: after a copy pass of [blocks] physical
    transfers from the surviving mirror (performed in the background while
    service continues), the drive rejoins the mirror set. *)

val fail_controller : t -> [ `A | `B ] -> unit

val restore_controller : t -> [ `A | `B ] -> unit

val drives_up : t -> int

val controllers_up_count : t -> int
(** Number of up controllers (0–2). *)

val mirrors_converged : t -> bool
(** Both drives up and no revive in progress: every block is present on both
    mirrors — the byte-convergence invariant the chaos checker asserts after
    a mirrored-disc failure/revive schedule has drained. *)

val reads : t -> int

val writes : t -> int

val forced_writes : t -> int
