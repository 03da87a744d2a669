open Tandem_sim
open Tandem_os
open Tandem_audit

type Message.payload +=
  | Backout_request of Transid.t
  | Backout_done of int
  | Backout_failed of string

let perform net state ~self transid =
  let metrics = Net.metrics net in
  let undone = ref 0 in
  let failure = ref None in
  let transid_string = Transid.to_string transid in
  Hashtbl.iter
    (fun _ trail ->
      let records = Audit_trail.records_for trail ~transid:transid_string in
      List.iter
        (fun record ->
          if !failure = None then begin
            let image = record.Audit_record.image in
            if Audit_record.is_commit_marker image then ()
            else
            match
              Hashtbl.find_opt state.Tmf_state.participants
                image.Audit_record.volume
            with
            | None ->
                failure :=
                  Some ("no participant for volume " ^ image.Audit_record.volume)
            | Some participant -> (
                match participant.Participant.apply_undo ~self image with
                | Ok () ->
                    incr undone;
                    Metrics.incr (Metrics.counter metrics "tmf.images_undone")
                | Error message -> failure := Some message)
          end)
        (List.rev records))
    state.Tmf_state.trails;
  match !failure with
  | Some message -> Error message
  | None ->
      (* The span's undo-image count reads straight off the per-transid
         audit index (equal to [!undone] on success: every indexed record
         was just applied) — no rescan of the trails. *)
      let images =
        Hashtbl.fold
          (fun _ trail acc ->
            acc + Audit_trail.record_count_for trail ~transid:transid_string)
          state.Tmf_state.trails 0
      in
      Span.add_images_undone (Net.spans net) transid_string images;
      Ok !undone

let service net state pair process =
  Process_pair.serve pair process (fun message ->
      match message.Message.payload with
      | Backout_request transid ->
          (* Run each backout in its own fiber so long undo streams do not
             serialize unrelated aborts. *)
          Process.spawn_fiber process (fun () ->
              let reply =
                match perform net state ~self:process transid with
                | Ok n -> Backout_done n
                | Error m -> Backout_failed m
              in
              Rpc.reply net ~self:process ~to_:message reply)
      | _ -> ())

let spawn ~net ~state ~primary_cpu ~backup_cpu =
  ignore
    (Process_pair.create ~net ~node:state.Tmf_state.node
       ~name:state.Tmf_state.backout_name ~primary_cpu ~backup_cpu
       ~service:(service net state))

let request net ~self ~node transid =
  match
    Rpc.call_name net ~self ~node ~name:"$BACKOUT"
      (Backout_request transid)
  with
  | Ok (Backout_done n) -> Ok n
  | Ok (Backout_failed m) -> Error m
  | Ok _ -> Error "protocol violation"
  | Error e -> Error (Format.asprintf "%a" Rpc.pp_error e)
