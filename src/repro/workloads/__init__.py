"""Traffic workloads: browsing drivers, random-data clients, sink servers."""

from .browser import BrowserDriver, CurlDriver
from .httpgen import SITES, http_get_request, site_request, tls_client_hello
from .payloads import (
    alphabet_size_for_entropy,
    payload_with_entropy,
    random_payload,
)
from .sink import RandomDataClient, RespondingServer, SinkServer

__all__ = [
    "BrowserDriver",
    "CurlDriver",
    "RandomDataClient",
    "RespondingServer",
    "SITES",
    "SinkServer",
    "alphabet_size_for_entropy",
    "http_get_request",
    "payload_with_entropy",
    "random_payload",
    "site_request",
    "tls_client_hello",
]
