type requirement = string list list

type credential = {
  name : string;
  release : requirement;
}

type party = {
  party_name : string;
  credentials : credential list;
}

let unprotected name = { name; release = [ [] ] }

let protected_by name needed = { name; release = [ needed ] }

type outcome = {
  success : bool;
  rounds : int;
  messages : int;
  disclosed_by_client : string list;
  disclosed_by_server : string list;
}

let satisfied requirement disclosed =
  List.exists (fun conj -> List.for_all (fun c -> List.mem c disclosed) conj) requirement

(* One turn: disclose every not-yet-disclosed credential whose release
   policy is met by what the counterparty has shown. *)
let disclose_turn party ~already ~seen =
  List.filter_map
    (fun c ->
      if List.mem c.name already then None
      else if satisfied c.release seen then Some c.name
      else None)
    party.credentials

let max_rounds = 20

let negotiate ~client ~server ~target () =
  let rec go ~round ~messages ~from_client ~from_server =
    if satisfied target from_client then
      {
        success = true;
        rounds = round;
        messages;
        disclosed_by_client = List.rev from_client;
        disclosed_by_server = List.rev from_server;
      }
    else if round >= max_rounds then
      {
        success = false;
        rounds = round;
        messages;
        disclosed_by_client = List.rev from_client;
        disclosed_by_server = List.rev from_server;
      }
    else begin
      let new_client = disclose_turn client ~already:from_client ~seen:from_server in
      let from_client = new_client @ from_client in
      (* The client's turn may already satisfy the target; the server
         replies with what it can now release (enabling the next client
         turn). *)
      let new_server =
        if satisfied target from_client then []
        else disclose_turn server ~already:from_server ~seen:from_client
      in
      let from_server = new_server @ from_server in
      let sent = (if new_client = [] then 0 else 1) + if new_server = [] then 0 else 1 in
      if sent = 0 && not (satisfied target from_client) then
        {
          success = false;
          rounds = round + 1;
          messages;
          disclosed_by_client = List.rev from_client;
          disclosed_by_server = List.rev from_server;
        }
      else
        go ~round:(round + 1) ~messages:(messages + sent) ~from_client ~from_server
    end
  in
  go ~round:0 ~messages:0 ~from_client:[] ~from_server:[]
