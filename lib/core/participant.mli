(** The interface a resource manager (in practice, a DISCPROCESS) offers the
    transaction layer.

    TMF never touches data directly: phase one asks each participating
    volume to put its audit records in the trail; backout hands undo images
    back to the volume's DISCPROCESS; phase two tells it to release the
    transaction's locks. The operations run inside TMP or BACKOUTPROCESS
    fibers and are expected to perform RPCs; [self] is the calling
    process. *)

type t = {
  volume : string;  (** Volume (and DISCPROCESS) name, e.g. ["$DATA1"]. *)
  node : Tandem_os.Ids.node_id;
  trail : string;  (** Name of the AUDITPROCESS its audit goes to. *)
  flush_audit :
    self:Tandem_os.Process.t -> Tandem_sim.Transid.t -> (int, string) result;
      (** Ship the transaction's buffered audit images to the trail.
          Returns the number of images shipped — zero marks the volume as a
          read-only participant, which feeds the read-only vote. *)
  release_locks : self:Tandem_os.Process.t -> Tandem_sim.Transid.t -> unit;
      (** Phase two / post-backout unlock. *)
  apply_undo :
    self:Tandem_os.Process.t ->
    Tandem_audit.Audit_record.image ->
    (unit, string) result;
      (** Restore one before-image. *)
}
