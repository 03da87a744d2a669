(** Suspense files and the suspense monitor — the deferred-replication
    machinery of the manufacturing data base.

    A global-file update commits at the record's master node together with
    one suspense-file entry per non-master copy. The suspense monitor scans
    its node's suspense file for work: for each entry whose target node is
    currently accessible, it executes a TMF transaction that applies the
    update at the target and deletes the entry. Entries for one target are
    applied strictly in suspense-file order — when a target is unreachable
    (or an entry for it fails), its later entries are skipped too, so that
    after reconnection the accumulated updates replay in order and the
    copies converge. *)

val entry_payload :
  target:Tandem_os.Ids.node_id ->
  file:string ->
  key:Tandem_db.Key.t ->
  payload:string ->
  string
(** Encode one deferred-update record. *)

type t

val start :
  cluster:Tandem_encompass.Cluster.t ->
  node:Tandem_os.Ids.node_id ->
  suspense_file:string ->
  apply_class:(Tandem_os.Ids.node_id -> string) ->
  ?interval:Tandem_sim.Sim_time.span ->
  unit ->
  t
(** Spawn the node's suspense monitor: a dedicated process whose fiber scans
    [suspense_file] every [interval] (default 500 ms) and delivers deferred
    updates through the target node's apply-server class. The monitor runs
    forever — drive the engine with a time bound. *)

val deliveries : t -> int
(** Deferred updates successfully applied and deleted. *)

val skips : t -> int
(** Entries skipped because their target was unreachable or blocked. *)
