"""`python -m sqpack` runs the `sqpack` command line."""
from .cli import main
raise SystemExit(main())
