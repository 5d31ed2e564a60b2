type t = {
  injected : int;
  delivered : int;
  drops : (string * int) list;
  in_flight : int;
  violations : Scheduler.violation list;
  violation_count : int;
}

let sum f xs = Array.fold_left (fun acc x -> acc + f x) 0 xs
let dropped t = List.fold_left (fun acc (_, n) -> acc + n) 0 t.drops

let measure fabric ~scheds =
  let hosts = Fabric.hosts fabric and switches = Fabric.switches fabric in
  let links = Array.of_list (Fabric.all_links fabric) in
  let t =
    {
      injected = sum Host.tx_packets hosts + sum Switch.ttl_replies switches;
      delivered = sum Host.rx_packets hosts;
      drops =
        [
          ("link-down", sum Link.down_drops links);
          ("brownout", sum Link.brownout_drops links);
          ("queue-overflow", sum Link.overflow_drops links);
          ("no-route", sum Switch.routing_drops switches);
          ("ttl-expired", sum Switch.ttl_drops switches);
        ];
      in_flight = sum Link.in_flight links;
      violations = List.concat_map Scheduler.violations scheds;
      violation_count = List.fold_left (fun n s -> n + Scheduler.violation_count s) 0 scheds;
    }
  in
  let accounted = t.delivered + dropped t + t.in_flight in
  if t.injected = accounted then t
  else
    let detail =
      Printf.sprintf "injected=%d but delivered=%d + dropped=%d + in_flight=%d = %d"
        t.injected t.delivered (dropped t) t.in_flight accounted
    in
    let v = { Scheduler.invariant = "packet-conservation"; detail } in
    { t with violations = t.violations @ [ v ]; violation_count = t.violation_count + 1 }

let merge a b =
  {
    injected = a.injected + b.injected;
    delivered = a.delivered + b.delivered;
    drops = List.map2 (fun (reason, x) (_, y) -> (reason, x + y)) a.drops b.drops;
    in_flight = a.in_flight + b.in_flight;
    violations = a.violations @ b.violations;
    violation_count = a.violation_count + b.violation_count;
  }

let ok t = t.violation_count = 0

let pp ~label fmt t =
  Format.fprintf fmt "audit %s: injected=%d delivered=%d dropped=%d in_flight=%d@."
    label t.injected t.delivered (dropped t) t.in_flight;
  List.iter
    (fun (reason, n) -> if n > 0 then Format.fprintf fmt "  drop[%s]=%d@." reason n)
    t.drops;
  Format.fprintf fmt "audit %s: %d violation(s)@." label t.violation_count;
  List.iter
    (fun v -> Format.fprintf fmt "  [%s] %s@." v.Scheduler.invariant v.Scheduler.detail)
    t.violations
