type t = Grow_only_drop | Inval_drop | Axiom_flip | View_change_drop | Shed_after_apply

let all = [ Grow_only_drop; Inval_drop; Axiom_flip; View_change_drop; Shed_after_apply ]

let to_string = function
  | Grow_only_drop -> "grow-only-drop"
  | Inval_drop -> "inval-drop"
  | Axiom_flip -> "axiom-flip"
  | View_change_drop -> "view-change-drop"
  | Shed_after_apply -> "shed-after-apply"

let of_string s = List.find_opt (fun m -> String.equal (to_string m) s) all

let describe = function
  | Grow_only_drop -> "grow-only iterator drops unreachable members (run)"
  | Inval_drop -> "lease cache ignores Inval callbacks (run)"
  | Axiom_flip -> "visibility engine inverts the membership axiom (run)"
  | View_change_drop -> "new leader drops the uncommitted log suffix (scenarios)"
  | Shed_after_apply -> "shed mutation applies its effect anyway (scenarios)"

(* The single armed slot; only [with_armed] writes it. *)
let slot = ref None

let armed m = match !slot with Some a -> a = m | None -> false

let with_armed m f =
  let saved = !slot in
  slot := m;
  Fun.protect ~finally:(fun () -> slot := saved) f
