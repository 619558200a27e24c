"""Run the command-line front end as a module: python -m plurikp <command> ..."""
from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
