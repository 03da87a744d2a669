type image = {
  volume : string;
  file : string;
  key : string;
  before : string option;
  after : string option;
}

type t = { sequence : int; transid : string; image : image }

let of_change ~volume ~transid (change : Tandem_db.File.change) =
  ignore transid;
  {
    volume;
    file = change.Tandem_db.File.file;
    key = change.Tandem_db.File.key;
    before = change.Tandem_db.File.before;
    after = change.Tandem_db.File.after;
  }

(* Commit markers: sentinel images carrying a fast-path commit decision in
   the data audit trail, so the commit's durability rides the same force as
   the images it covers. The sentinel volume never exists, so redo/undo
   passes (which look targets up by volume) skip markers structurally. *)

let marker_volume = "$TMF"
let marker_file = "$COMMIT"

let commit_marker_image =
  { volume = marker_volume; file = marker_file; key = ""; before = None;
    after = Some "committed" }

let is_commit_marker image =
  image.volume = marker_volume && image.file = marker_file

let undo_change image =
  {
    Tandem_db.File.file = image.file;
    key = image.key;
    before = image.before;
    after = image.after;
  }

let redo_change = undo_change

let pp formatter t =
  let side = function Some _ -> "*" | None -> "-" in
  Format.fprintf formatter "#%d %s %s[%S] %s->%s" t.sequence t.transid
    t.image.file t.image.key (side t.image.before) (side t.image.after)
