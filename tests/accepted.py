"""Reach the sessions a server accepts.

Servers keep no list of their sessions: a session lives while its
connection's callbacks or its timers refer to it.  A test that inspects
one re-listens on the server's port through ``server._accept``, which
returns the session it built, and keeps what it returns.
"""

from typing import Callable, List


def accepted_sessions(server, keep: Callable = lambda session: session) -> List:
    """From now on, append ``keep(session)`` for every session ``server``
    accepts to the returned list.

    The default keeps the session itself, alive for as long as the list
    is; pass ``weakref.ref`` to watch sessions without keeping them.
    """
    kept: List = []

    def accept(conn):
        session = server._accept(conn)
        kept.append(keep(session))
        return session

    server.host.unlisten(server.port)
    server.host.listen(server.port, accept)
    return kept
