type t = Weakset_obs.Event.elem = { elem_id : int; elem_label : string }

let make ?label id =
  { elem_id = id; elem_label = (match label with Some l -> l | None -> "e" ^ string_of_int id) }

let id t = t.elem_id
let label t = t.elem_label
let equal a b = Int.equal a.elem_id b.elem_id
let compare a b = Int.compare a.elem_id b.elem_id
let hash t = t.elem_id
let pp fmt t = Format.pp_print_string fmt t.elem_label

module Set = struct
  include Set.Make (struct
    type nonrec t = t

    let compare = compare
  end)

  let pp fmt s =
    Format.fprintf fmt "{%a}"
      (Format.pp_print_list ~pp_sep:(fun f () -> Format.pp_print_string f ", ") pp)
      (elements s)
end
