(** The AUDITPROCESS: a process-pair that owns one audit trail and serves
    two requests — append a batch of images, and force the trail to disc.

    All audited volumes configured onto the same trail share one
    AUDITPROCESS; DISCPROCESSes ship their per-transaction image batches
    here during phase one (or when their local buffers fill), and the commit
    coordinator asks for the force that ends phase one. *)

type t

val spawn :
  net:Tandem_os.Net.t ->
  node:Tandem_os.Node.t ->
  trail:Audit_trail.t ->
  name:string ->
  primary_cpu:Tandem_os.Ids.cpu_id ->
  backup_cpu:Tandem_os.Ids.cpu_id ->
  t

val is_up : t -> bool
(** Test hook: whether the pair has a live primary. *)

(** {1 Client side} *)

val append_images :
  Tandem_os.Net.t ->
  self:Tandem_os.Process.t ->
  node:Tandem_os.Ids.node_id ->
  name:string ->
  transid:Tandem_sim.Transid.t ->
  Audit_record.image list ->
  (unit, Tandem_os.Rpc.error) result
(** Ship a batch of audit images to the named AUDITPROCESS and wait for the
    acknowledgement. *)

val force :
  Tandem_os.Net.t ->
  self:Tandem_os.Process.t ->
  node:Tandem_os.Ids.node_id ->
  name:string ->
  (unit, Tandem_os.Rpc.error) result
(** Ask the named AUDITPROCESS to force its trail (phase one). *)
