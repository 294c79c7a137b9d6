let filter iter p =
  let rec next () =
    match Iterator.next iter with
    | Iterator.Yield (o, v) -> if p o v then Iterator.Yield (o, v) else next ()
    | (Iterator.Done | Iterator.Failed _) as outcome -> outcome
  in
  Iterator.make ~next ~close:(fun () -> Iterator.close iter)

let contains_substring haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec loop i = i + nn <= nh && (String.sub haystack i nn = needle || loop (i + 1)) in
  nn = 0 || loop 0

let grep iter needle =
  filter iter (fun _ v -> contains_substring (Weakset_store.Svalue.content v) needle)

let collect ?limit iter = Iterator.drain ?limit iter

let count ?limit iter p =
  let yields, _ = Iterator.drain ?limit iter in
  List.length (List.filter (fun (o, v) -> p o v) yields)
