"""Clients for the control API (the machinery behind ``repro control``).

Two transports, one surface:

* :class:`HttpControlClient` — stdlib ``urllib`` against a running
  daemon's HTTP port;
* :class:`LocalControlClient` — wraps a
  :class:`~repro.control.api.ControlPlane` in-process, so ``repro
  control --store audit.db --config audit.toml`` triages a store with
  no daemon at all.

Both expose ``request(method, path, query, body) -> (status, payload)``
plus named helpers; the CLI treats them interchangeably.
"""

from __future__ import annotations

import json
from typing import Optional
from urllib.error import HTTPError, URLError
from urllib.parse import urlencode
from urllib.request import Request, urlopen

from repro.control.api import API_VERSION, ControlPlane
from repro.errors import ReproError


class ControlClientError(ReproError):
    """The daemon could not be reached (not an API-level error)."""


class _ControlSurface:
    """The named helpers shared by both transports."""

    def request(
        self,
        method: str,
        path: str,
        query: Optional[dict] = None,
        body: Optional[dict] = None,
    ) -> tuple[int, dict]:
        raise NotImplementedError

    def _get(self, path: str, query: Optional[dict] = None) -> tuple[int, dict]:
        return self.request("GET", f"/api/{API_VERSION}/{path}", query)

    def _post(
        self,
        path: str,
        query: Optional[dict] = None,
        body: Optional[dict] = None,
    ) -> tuple[int, dict]:
        return self.request(
            "POST", f"/api/{API_VERSION}/{path}", query, body
        )

    def tenants(self) -> tuple[int, dict]:
        return self._get("tenants")

    def verdicts(self, **filters: object) -> tuple[int, dict]:
        query = {k: str(v) for k, v in filters.items() if v is not None}
        return self._get("verdicts", query)

    def case(self, case: str) -> tuple[int, dict]:
        return self._get(f"cases/{case}")

    def trail(
        self, case: str, after_seq: int = 0, limit: Optional[int] = None
    ) -> tuple[int, dict]:
        query = {"after_seq": str(after_seq)}
        if limit is not None:
            query["limit"] = str(limit)
        return self._get(f"cases/{case}/trail", query)

    def quarantine(self) -> tuple[int, dict]:
        return self._get("quarantine")

    def requeue(self, case: str) -> tuple[int, dict]:
        return self._post(f"quarantine/{case}/requeue")

    def dismiss(
        self, case: str, actor: str = "operator", reason: str = ""
    ) -> tuple[int, dict]:
        return self._post(
            f"quarantine/{case}/dismiss",
            body={"actor": actor, "reason": reason},
        )

    def reaudit(self, **body: object) -> tuple[int, dict]:
        return self._post(
            "reaudit", body={k: v for k, v in body.items() if v is not None}
        )

    def config_info(self) -> tuple[int, dict]:
        return self._get("config")


class HttpControlClient(_ControlSurface):
    """Talks to a daemon's HTTP listener (``http://host:port``)."""

    def __init__(self, base_url: str, timeout_s: float = 30.0):
        self._base = base_url.rstrip("/")
        self._timeout = timeout_s

    def request(
        self,
        method: str,
        path: str,
        query: Optional[dict] = None,
        body: Optional[dict] = None,
    ) -> tuple[int, dict]:
        url = self._base + path
        if query:
            url += "?" + urlencode(query)
        data = None
        headers = {"Accept": "application/json"}
        if body is not None:
            data = json.dumps(body).encode("utf-8")
            headers["Content-Type"] = "application/json; charset=utf-8"
        request = Request(url, data=data, method=method, headers=headers)
        try:
            with urlopen(request, timeout=self._timeout) as response:
                return response.status, _decode(response.read())
        except HTTPError as error:
            # API-level errors (4xx/5xx) still carry a JSON payload.
            return error.code, _decode(error.read())
        except (URLError, OSError) as error:
            raise ControlClientError(
                f"cannot reach {self._base}: {error}"
            ) from error


class LocalControlClient(_ControlSurface):
    """Runs the API in-process over a store file (no daemon)."""

    def __init__(self, plane: ControlPlane):
        self._plane = plane

    def request(
        self,
        method: str,
        path: str,
        query: Optional[dict] = None,
        body: Optional[dict] = None,
    ) -> tuple[int, dict]:
        status, payload, _ = self._plane.handle(
            method, path, query or {}, body
        )
        return status, payload


def _decode(raw: bytes) -> dict:
    try:
        payload = json.loads(raw)
    except ValueError:
        return {"error": raw.decode("utf-8", "replace").strip()}
    return payload if isinstance(payload, dict) else {"data": payload}
