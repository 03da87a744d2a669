(** Whole-network assembly: the executable equivalent of Figures 1 and 2.

    A cluster owns the network, TMF, the data dictionary and every spawned
    service. Experiments build a cluster, add nodes/volumes/files/servers/
    TCPs, preload data, drive terminal traffic, inject failures and read the
    metrics registry. *)

type t

val create : ?seed:int -> ?config:Tandem_os.Hw_config.t -> unit -> t
(** A cluster with no nodes yet. [config] (default {!Tandem_os.Hw_config.default})
    is the one boot-time configuration: hardware costs and protocol knobs
    alike, read by every service the cluster spawns. *)

val net : t -> Tandem_os.Net.t

val engine : t -> Tandem_sim.Engine.t

val tmf : t -> Tmf.t

val metrics : t -> Tandem_sim.Metrics.t

val spans : t -> Tandem_sim.Span.t
(** The per-transaction span registry of the cluster's network. *)

val dictionary : t -> Tandem_db.Schema.t

val files : t -> File_client.t

val add_node : t -> id:Tandem_os.Ids.node_id -> cpus:int -> Tandem_os.Node.t
(** Create the node, install TMF on it (monitor trail on a dedicated system
    volume) and create its default audit trail ["$AUDIT"] with its
    AUDITPROCESS on a dedicated audit volume. *)

val link : t -> Tandem_os.Ids.node_id -> Tandem_os.Ids.node_id -> unit

val add_audit_trail :
  t -> node:Tandem_os.Ids.node_id -> name:string -> unit
(** Test hook: create an additional audit trail (with its own volume and
    AUDITPROCESS pair) on the node; volumes can then be configured onto it.
    Trail locations are independently configurable, per the paper. *)

val add_volume :
  t ->
  node:Tandem_os.Ids.node_id ->
  name:string ->
  ?primary_cpu:Tandem_os.Ids.cpu_id ->
  ?backup_cpu:Tandem_os.Ids.cpu_id ->
  ?cache_capacity:int ->
  ?trail:string ->
  unit ->
  Discprocess.t
(** Create a mirrored data volume with its DISCPROCESS pair, registered with
    TMF — feeding [trail] (default ["$AUDIT"]) — and with ROLLFORWARD. *)

val discprocess : t -> node:Tandem_os.Ids.node_id -> volume:string -> Discprocess.t

val volume : t -> node:Tandem_os.Ids.node_id -> volume:string -> Tandem_disk.Volume.t

val add_file : t -> Tandem_db.Schema.file_def -> unit
(** Add to the dictionary and create each partition on its volume. *)

val load_file : t -> file:string -> (Tandem_db.Key.t * string) list -> unit
(** Bulk-load initial records without charging simulated I/O, then flush the
    loaded image to "disc" so it survives crashes ({!Tandem_db.File.load}).

    The rows must strictly ascend and the file must be key-sequenced with
    no secondary index; otherwise [Invalid_argument] names the file and
    nothing is loaded. Cost: O(rows + blocks), one write per block, plus
    one disc-image copy of each partition the rows reach; the blocks are
    those per-row inserts would build. Partitions no row reaches are left
    alone, cache included. Charging is switched back on for every touched
    volume even when the load fails, so a failed load never leaves later
    I/O free. A partition whose volume lacks the file raises
    [Invalid_argument]. *)

val add_server_class :
  t ->
  node:Tandem_os.Ids.node_id ->
  name:string ->
  count:int ->
  Server.handler ->
  Server.t
(** Server classes are addressable from any TCP in the cluster. *)

val server_class : t -> string -> Server.t option

val add_tcp :
  t ->
  node:Tandem_os.Ids.node_id ->
  name:string ->
  ?primary_cpu:Tandem_os.Ids.cpu_id ->
  ?backup_cpu:Tandem_os.Ids.cpu_id ->
  terminals:int ->
  program:Screen_program.t ->
  unit ->
  Tcp.t

(** {1 Introspection}

    Deterministically-ordered views over the built configuration, for the
    chaos checker and scenario harness. *)

val node_ids : t -> Tandem_os.Ids.node_id list
(** Every node id, ascending. *)

val volumes : t -> Tandem_disk.Volume.t list
(** Every volume in the cluster — data, monitor and audit volumes — sorted
    by name. *)

val data_volumes : t -> (Tandem_os.Ids.node_id * string) list
(** The [(node, volume)] pair of every data volume with a DISCPROCESS,
    sorted. *)

val all_discprocesses : t -> Discprocess.t list
(** Every DISCPROCESS, sorted by [(node, volume name)]. *)

val run_client :
  t ->
  node:Tandem_os.Ids.node_id ->
  cpu:Tandem_os.Ids.cpu_id ->
  (Tandem_os.Process.t -> unit) ->
  unit
(** Spawn an ad-hoc requester process running the body as a fiber (tests and
    experiments drive transactions this way without a TCP). *)

val run : ?until:Tandem_sim.Sim_time.t -> t -> unit

val run_for : t -> Tandem_sim.Sim_time.span -> unit

(** {1 Failure injection and recovery} *)

val fail_cpu : t -> node:Tandem_os.Ids.node_id -> Tandem_os.Ids.cpu_id -> unit

val restore_cpu : t -> node:Tandem_os.Ids.node_id -> Tandem_os.Ids.cpu_id -> unit

val take_archive : t -> node:Tandem_os.Ids.node_id -> Tmf.Rollforward.archive

val total_node_failure : t -> node:Tandem_os.Ids.node_id -> unit
(** Lose the node's volatile state: every volume reverts to its flushed
    blocks, unforced audit is lost, lock tables and the transaction
    registry empty. (Process re-creation after reload is treated as
    instantaneous; data recovery is the dominant cost.) *)

val rollforward_node :
  t -> node:Tandem_os.Ids.node_id -> Tmf.Rollforward.archive -> Tmf.Rollforward.stats
(** Run ROLLFORWARD on the node from the archive; drives the engine until
    the recovery fiber finishes. *)
