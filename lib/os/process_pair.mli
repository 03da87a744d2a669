(** The NonStop process-pair.

    Two cooperating processes in two processors: the primary serves requests
    and sends the backup checkpoints; the backup passively applies them to
    its own copy of the service state. When the primary's processor fails,
    the backup is promoted — it re-registers the service name at its own pid
    (so name-addressed retries reach it) and resumes service from the
    checkpointed state. Mutations the primary made after its last checkpoint
    are lost, exactly as on the real machine; services checkpoint *before*
    acting to make that window harmless (for the DISCPROCESS this rule is
    what substitutes for Write-Ahead-Log).

    A promoted pair re-creates its backup on another processor ("rebirth"),
    and a pair whose backup dies does the same, so the pair survives any
    sequence of single failures with repair in between. Only the simultaneous
    loss of both processors takes the service down. *)

type ('state, 'ckpt) t

val create :
  net:Net.t ->
  node:Node.t ->
  name:string ->
  primary_cpu:Ids.cpu_id ->
  backup_cpu:Ids.cpu_id ->
  init:(unit -> 'state) ->
  apply:('state -> 'ckpt -> unit) ->
  snapshot:('state -> 'ckpt list) ->
  service:(('state, 'ckpt) t -> 'state -> Process.t -> unit) ->
  ('state, 'ckpt) t
(** [init] builds an empty replica state; [apply] folds one checkpoint into a
    replica; [snapshot] dumps a state as the checkpoint sequence that
    re-creates it (used for rebirth); [service] is the primary's request
    loop, which must use {!receive} (not [Process.receive]) so that
    checkpoint traffic is kept separate. *)

val checkpoint : ('state, 'ckpt) t -> 'ckpt -> unit
(** Send one checkpoint to the backup and wait the bus round-trip. Called
    from the service fiber, before the primary acts on the checkpointed
    intention. No-op (but still counted) when no backup exists. *)

val receive : ('state, 'ckpt) t -> Process.t -> Message.t
(** Receive the next non-checkpoint message in the service loop. *)

val name : ('state, 'ckpt) t -> string

val is_up : ('state, 'ckpt) t -> bool

val takeovers : ('state, 'ckpt) t -> int
(** Number of backup-promotions so far. *)
