(** The NonStop process-pair.

    Two cooperating processes in two processors: the primary serves requests
    and sends the backup checkpoints; the backup only absorbs them. When the
    primary's processor fails, the backup is promoted — it re-registers the
    service name at its own pid (so name-addressed retries reach it) and
    starts the service loop.

    The service's state is one value that both halves share (the caller
    closes [service] over it), so a takeover never loses a mutation: the
    model keeps the cost of checkpointing, not a replica. A {!checkpoint}
    costs one [os.checkpoints] count, a 2 × [bus_latency] wait in the
    primary and one [cpu_message_cost] on the backup's processor. Services
    still checkpoint where the real system would — before acting on a
    request (for the DISCPROCESS this rule is what substitutes for
    Write-Ahead-Log) — so the message and time costs match the paper's.

    A promoted pair re-creates its backup on another processor ("rebirth"),
    and a pair whose backup dies does the same, so the pair survives any
    sequence of single failures with repair in between. Only the simultaneous
    loss of both processors takes the service down. *)

type t

val create :
  net:Net.t ->
  node:Node.t ->
  name:string ->
  primary_cpu:Ids.cpu_id ->
  backup_cpu:Ids.cpu_id ->
  service:(t -> Process.t -> unit) ->
  t
(** [service] runs in the primary, and again in the backup when it takes
    over; it normally ends in {!serve}. Raises [Invalid_argument] when
    [primary_cpu = backup_cpu]. *)

val checkpoint : t -> unit
(** Send one checkpoint to the backup and wait the bus round trip. Called
    from the service fiber, before the primary acts on the checkpointed
    intention. Returns at once (but is still counted) when no live backup
    exists. *)

val serve : t -> Process.t -> (Message.t -> unit) -> unit
(** [serve pair process handle] is the primary's request loop: it takes
    the next non-checkpoint message from the mailbox, charges
    [cpu_message_cost] to the process's processor, then calls [handle].
    Never returns. *)

val is_up : t -> bool

